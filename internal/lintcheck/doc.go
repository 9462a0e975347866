// Package lintcheck is a stdlib-only static-analysis suite that mechanically
// enforces the repository's determinism, concurrency, durability, error-
// hygiene, panic-policy, and API invariants. The reproduction's headline
// guarantee — byte-identical Run/Measure output for any worker count, under
// any fault plan, resumable through SIGKILL — rests on hand-maintained
// conventions (every RNG seeded, no wall clock in the simulation plane, no
// map-iteration order escaping into results, fsync before rename). This
// package turns those conventions into build failures.
//
// The suite is built purely against the standard library (go/parser, go/ast,
// go/types); packages and their type information are loaded through
// `go list -export` (see load.go), so go.mod keeps zero dependencies.
//
// # v2: call-graph-transitive analysis
//
// v1 checked every rule at the call site, so a helper that read the wall
// clock three frames below an engine worker slipped through whenever the
// helper's own package was exempt or the reviewer missed the chain. v2 adds
// an approximate call graph (callgraph.go): static calls, function-value
// references, and method calls devirtualized by type — an interface method
// call adds edges to every loaded concrete implementation. On top of the
// graph, the transitive analyzer (transitive.go) walks from the
// engine/simulation entry points (every function declared under
// Config.TransitiveRoots: internal/core, internal/bgpsim, internal/netsim,
// internal/atlas, internal/campaign) and diagnoses any chain that reaches
// the wall clock, a global math/rand function, or an unseeded rand.New —
// printing the full call chain, with devirtualized hops marked
// "iface.M => impl.M".
// A forbidden source that is itself allow-suppressed or inside a
// WallClockAllow package does not taint its callers: the justification at
// the site covers the usage.
//
// # Rules
//
// Each diagnostic carries the rule name; suppress a single site with a
// `//repolint:allow <rule>` comment on the same line or the line above
// (rule names space- or comma-separated, justification after "--").
// `repolint -rules` prints this table; `repolint -allows` audits every
// suppression in the tree.
//
//   - wallclock:    time.Now, time.Since and time.Until are forbidden outside
//     the live-socket and harness allowlist, both at the call site and
//     transitively from the engine entry points. The simulation plane models
//     time as minute bins.
//   - globalrand:   package-level math/rand functions draw from the shared,
//     racily-seeded global source; also enforced transitively.
//   - unseededrand: rand.New's source must be a direct rand.NewSource(seed)
//     call, so the seed is visible at the construction site; also enforced
//     transitively.
//   - maprange:     ranging over a map and appending to a slice that is then
//     returned without an intervening sort.* call leaks map-iteration order.
//   - mapiter:      in packages with pooled, reusable computation scratch
//     (internal/bgpsim), ranging over a map is banned outright.
//   - errwrap:      fmt.Errorf with an error-typed argument must use %w.
//   - sentinel:     package-level sentinel errors must be errors.New.
//   - panic:        no panic() in internal/ outside the allowlist.
//   - ctxfirst:     context.Context must be the first parameter.
//   - mutexcopy:    no sync primitive (or type containing one) by value.
//   - atomicwrite:  in command-line harnesses, whole-file writes must go
//     through internal/atomicio (temp + fsync + rename).
//   - syncclose:    in the crash-safety packages (Config.SyncCloseBan:
//     internal/atomicio, internal/campaign, internal/checkpoint), a
//     discarded Close/Sync error on a writable file — or on one of the
//     packages' own durability types — hides exactly the failure the
//     fsync-before-rename discipline exists to catch; join it into the
//     returned error or justify the discard.
//   - goroleak:     a goroutine launched with no visible join path (no
//     context, channel operation, or WaitGroup anywhere in the go statement
//     or the launched same-package function) outlives the run it belongs to.
//   - exitcode:     cmd/ binaries exit through the documented core.Exit*
//     contract — no bare os.Exit(5), no log.Fatal, which hard-exits 1
//     without running the deferred cleanup the atomic-output discipline
//     relies on, and no flag.ExitOnError or package-level flag.Parse, which
//     exit 2 (core.ExitPanic) on a bad flag instead of core.ExitUsage.
//   - hotalloc:     functions annotated `//repolint:hot` (the bgpsim/netsim/
//     core per-probe paths the AllocsPerRun tests protect) must stay
//     structurally allocation-free: no append, make, new, map/slice
//     literals, or closures.
//
// # No findings baseline
//
// `make lint` fails on any finding, and TestRepolintSelfClean asserts the
// whole module reports none. A new rule lands clean: the change that adds
// it fixes every site it flags, or marks a deliberate one with a justified
// `//repolint:allow <rule> -- reason` on the line or the line above.
package lintcheck
