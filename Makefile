# Reproduction harness entry points. `make verify` is the gate every change
# must pass: format + vet + build + repolint + full tests, then the race
# detector over every package.

GO ?= go

.PHONY: verify fmt vet build lint test race stress soak soak-resume soak-failover campaign-smoke campaign-resume bench-workers bench-e2e reproduce

verify: fmt vet build lint test race

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# Repository-specific static analysis: determinism (per-site and
# call-graph-transitive), error-hygiene, panic-policy, API-hygiene,
# durability, and concurrency invariants (see README "Determinism
# invariants and repolint"). Zero external deps; rules live in
# internal/lintcheck. Any finding fails: there is no findings baseline, so a
# new rule lands clean or with a justified //repolint:allow. The full
# findings JSON lands in lint/findings.json for the CI artifact.
lint:
	$(GO) run ./cmd/repolint -out lint/findings.json ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Socket stress: the packages that bind real UDP/TCP ports, 20 times over
# under the race detector, 4 test binaries at a time. Run it beside other
# load to shake out port-binding races (see EXPERIMENTS.md "Socket stress").
stress:
	$(GO) test -race -count=20 -p 4 ./internal/sitemgr ./internal/dnsserver ./cmd/sitemgr

# Fault-injection soak: 8 random heavy fault plans through the full engine
# under the race detector, each dataset distinct; the first two seeds also
# replay sequentially to prove worker-count independence under faults. Each
# soak target below runs exactly one test; -count=1 keeps a cached pass from
# standing in for a soak, and the test's constants set its length.
soak:
	$(GO) test -race -count=1 -run '^TestFaultSoak$$' .

# Kill/resume soak: SIGKILL a checkpointing child rootevent at three fixed
# minutes, the last inside event 1, resume each time from the snapshots it
# left behind, and require
# the final dataset hash to equal an uninterrupted run's (see README
# "Crash recovery").
soak-resume:
	$(GO) test -count=1 -run '^TestKillResume$$' ./cmd/rootevent

# Live failover soak: run the site manager as a child over real sockets,
# flood one site until both health signals corroborate, and require the
# full loop — withdraw, catchment shift (verified by a real CHAOS probe),
# SIGKILL + journal resume with the damping penalty intact, re-announce —
# to close (see README "Live failover").
soak-failover:
	$(GO) test -count=1 -run '^TestSiteFailover$$' ./cmd/sitemgr

# Campaign degraded-mode smoke: sweep a tiny scenario grid containing one
# scripted-panic and one scripted-stall scenario and require both to be
# quarantined with the right failure class while the clean scenarios
# complete (see README "Campaign runner").
campaign-smoke:
	$(GO) test -count=1 -run '^TestCampaignSmoke$$' ./cmd/campaign

# Campaign kill/resume soak: SIGKILL the campaign runner (its workers live
# on until their pipes close) after 1, 2 and 3 of 4 scenarios finish, resume
# each time, and require the final campaign.json to be byte-identical to an
# uninterrupted sweep's, with no finished scenario started again.
campaign-resume:
	$(GO) test -count=1 -run '^TestCampaignResume$$' ./cmd/campaign

# Parallel-engine scaling benches (byte-identical output per worker count).
bench-workers:
	$(GO) test -bench='ParallelSmallWorkers|Nov30EventWorkers' -benchtime=1x -run '^$$' .

# End-to-end benchmark (cmd/rootbench, declared in BENCHMARK.json; every
# workload, metric and bound is documented in bench/README.md): the two
# replay workloads — the checkpointed replay and the headline Nov 30
# reproduction — and the campaign grid, each into its own
# bench/out/<workload>/results.json (rootbench rewrites results.json on
# every invocation). Append
# `--trace 1` to a line for the per-layer pass. To judge a change, run the
# same workload on both commits several times, alternating, and compare.
bench-e2e:
	$(GO) run ./cmd/rootbench --workload replay_ckpt --out bench/out/replay_ckpt
	$(GO) run ./cmd/rootbench --workload replay_nov30 --out bench/out/replay_nov30
	$(GO) run ./cmd/rootbench --workload campaign_grid --out bench/out/campaign_grid
	@echo "compare against another checkout's run of the same target (bounds from BENCHMARK.json):"
	@echo "  $(GO) run ./cmd/rootbench -compare <parent>/bench/out/replay_ckpt/results.json bench/out/replay_ckpt/results.json"
	@echo "  $(GO) run ./cmd/rootbench -compare <parent>/bench/out/replay_nov30/results.json bench/out/replay_nov30/results.json"
	@echo "  $(GO) run ./cmd/rootbench -compare <parent>/bench/out/campaign_grid/results.json bench/out/campaign_grid/results.json"

reproduce:
	$(GO) run ./cmd/rootevent -out out -save out/dataset.bin
