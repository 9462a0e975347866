# Reproduction harness entry points. `make verify` is the gate every change
# must pass: format + vet + build + repolint + full tests, then the race
# detector over every package.

GO ?= go

.PHONY: verify fmt vet build lint lint-baseline test race soak soak-resume soak-failover campaign-smoke campaign-resume bench bench-server bench-gate bench-workers bench-e2e reproduce

# Keep bench going even if tee's upstream pipeline status matters on some
# shells: the JSON step only runs when the bench run itself succeeded.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

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
# internal/lintcheck. Findings are diffed against the committed baseline:
# a new finding fails, and so does a baseline entry that no longer fires
# (regenerate with `make lint-baseline` alongside the fix). The full
# findings JSON lands in lint/findings.json for the CI artifact.
lint:
	$(GO) run ./cmd/repolint -baseline lint/baseline.json -out lint/findings.json ./...

# Regenerate the findings baseline after deliberately fixing (or accepting)
# a finding. The file is canonical JSON: rerunning without code changes is
# byte-identical.
lint-baseline:
	$(GO) run ./cmd/repolint -baseline lint/baseline.json -write-baseline ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Fault-injection soak: 8 random heavy fault plans through the full engine
# under the race detector; the first two seeds also replay sequentially to
# prove worker-count independence under faults.
soak:
	$(GO) run -race ./cmd/chaossoak -seeds 8

# Kill/resume soak: SIGKILL a checkpointing child rootevent at three seeded
# epochs, resume each time from the snapshots it left behind, and require
# the final dataset hash to equal an uninterrupted run's (see README
# "Crash recovery"). Quick mode used by CI; crank -kills/-minutes to soak.
soak-resume:
	$(GO) run ./cmd/chaossoak -mode killresume -kills 3 -seed 7 -minutes 720

# Live failover soak: run the site manager as a child over real sockets,
# flood one site until both health signals corroborate, and require the
# full loop — withdraw, catchment shift (verified by a real CHAOS probe),
# SIGKILL + journal resume with the damping penalty intact, re-announce —
# to close (see README "Live failover").
soak-failover:
	$(GO) run ./cmd/chaossoak -mode sitefailover -seed 7

# Campaign degraded-mode smoke: sweep a tiny scenario grid containing one
# scripted-panic and one scripted-stall scenario and require both to be
# quarantined with the right failure class while the clean scenarios
# complete (see README "Campaign runner").
campaign-smoke:
	$(GO) run ./cmd/chaossoak -mode campaignsmoke

# Campaign kill/resume soak: SIGKILL the campaign runner at seeded points
# of ledger progress, resume each time, and require the final campaign.json
# to be byte-identical to an uninterrupted sweep's.
campaign-resume:
	$(GO) run ./cmd/chaossoak -mode campaignresume -kills 3 -seed 7

# Tracked benchmark baseline: the per-figure benches plus the routing
# (ComputeFullVsIncremental) and probe (ProbeOutcome) hot-path benches,
# converted into BENCH_6.json (see README "Performance"). The Nov30 scaling
# bench stays in bench-workers — it is far too heavy for a routine run.
# BENCHTIME=1x is the quick CI variant.
BENCHTIME ?= 1s
bench:
	$(GO) test -run '^$$' -bench=. -benchmem -benchtime=$(BENCHTIME) \
		-skip 'Nov30EventWorkers|ServerEcho|FloodPath|CheckShardedParallel' \
		-timeout 60m ./... | tee bench.out
	$(GO) run ./cmd/benchjson -in bench.out -out BENCH_6.json
	$(MAKE) bench-gate

# Server packet-path benches (see README "Serving performance"): the
# in-memory FloodPath/fast per-packet path, the over-socket ServerEcho
# worker sweep, and the sharded RRL check, converted into BENCH_9.json.
bench-server:
	$(GO) test -run '^$$' -bench 'ServerEcho|FloodPath|CheckShardedParallel|CheckHotPrefix|CheckSpoofedFlood' \
		-benchmem -benchtime=$(BENCHTIME) -timeout 30m \
		./internal/dnsserver/ ./internal/rrl/ | tee bench-server.out
	$(GO) run ./cmd/benchjson -in bench-server.out -out BENCH_9.json
	$(MAKE) bench-gate

# Allocation gate against the pre-columnar baseline: b_per_op/allocs_per_op
# must not regress past tolerance anywhere, and Figure4 must hold the >= 5x
# reduction the columnar store bought (see README "Performance"). Timing is
# deliberately not gated — CI runners share cores; allocation counts don't.
# The second diff gates the server packet path (BENCH_9.json): the batched
# fast path must stay allocation-free and under 1000 ns/op (>= 1 Mq/s per
# core); the rrl benches shared by both files get the tolerance diff.
bench-gate:
	$(GO) run ./cmd/benchjson -diff \
		-min-improve 'Figure4:b_per_op:5,Figure4:allocs_per_op:5' \
		BENCH_4.json BENCH_6.json
	$(GO) run ./cmd/benchjson -diff \
		-max 'FloodPath/fast:allocs_per_op:0,FloodPath/fast:ns_per_op:1000' \
		BENCH_6.json BENCH_9.json

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
