// Package anycastddos reproduces "Anycast vs. DDoS: Evaluating the
// November 2015 Root DNS Event" (IMC 2016) as a Go library.
//
// The implementation lives under internal/: an AS-level topology and BGP
// anycast routing simulator (topo, bgpsim), the 13-letter Root DNS
// deployment model (anycast), the event traffic and queueing models
// (attack, netsim, rrl), the measurement ecosystem (atlas, rssac, bgpmon,
// chaos, dnswire, dnsserver), and the orchestration plus per-figure
// analyses (core, analysis, report).
//
// Regenerate every table and figure of the paper's evaluation with
//
//	go run ./cmd/rootevent -out out
//
// and measure what the pipeline costs with cmd/rootbench, the repository's
// benchmark (bench/README.md):
//
//	make bench-e2e
//
// # Performance & parallelism
//
// The evaluator is parallel by default and deterministic regardless: for a
// given seed, every worker count produces byte-identical datasets, RSSAC
// reports, and route series. During core.Evaluator.Run the letters whose
// announcements moved re-route across a worker pool, with a per-minute
// barrier replaying the cross-letter shared-fabric contributions in letter
// order; during Measure
// the vantage-point population shards into contiguous ranges writing
// disjoint dataset segments, and each vantage point asks the world for a
// whole walk — its probes of one letter — at a time (atlas.WalkWorld;
// a per-probe atlas.World is adapted), about 24 ns a probe end to end. Control the pool with
// core.WithWorkers(n) (0 = GOMAXPROCS) or `-workers` on cmd/rootevent,
// cancel with core.WithContext plus RunContext/MeasureContext, and observe
// progress with core.WithProgress. BenchmarkParallelSmallWorkers and
// BenchmarkNov30EventWorkers chart the scaling.
//
// # Crash recovery
//
// Long replays are kill-safe. core.WithCheckpoint(dir, everyN) appends one
// checksummed, fsynced record per checkpoint to the directory's
// append-only log (internal/checkpoint on internal/ledger's framing) —
// only the minutes, routing epochs and collector updates since the
// previous record, so a checkpoint costs its interval, not the run so far
// — and core.ResumeRun folds the longest valid record prefix back into the
// engine: a torn or damaged record ends the prefix, an empty directory
// means a fresh run, and the output is byte-identical to an uninterrupted
// run at any worker count, under any fault plan. rootevent exposes it as
// -checkpoint/-resume, and `make soak-resume` proves the guarantee through
// real SIGKILLs (cmd/rootevent's TestKillResume). The engine runs under no
// in-process watchdog: it is seeded and deterministic, so a failure recurs
// on restart and a transient one is met by a rerun or -resume. Long sweeps
// are supervised per scenario by the campaign runner.
//
// # Determinism invariants
//
// Reproducibility is enforced mechanically, not by convention: cmd/repolint
// (rule engine in internal/lintcheck, stdlib-only) fails the build on
// wall-clock reads in the simulation plane, global or unseeded math/rand
// use, map-iteration order escaping into results, fmt.Errorf that drops an
// error without %w, panics in internal/ packages, context or mutex
// misuse, and non-atomic output writes in the command harnesses. It runs
// inside `make verify` and again as TestRepolintSelfClean
// in the ordinary test suite.
package anycastddos
