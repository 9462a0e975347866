package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/rootevent/anycastddos/internal/attack"
	"github.com/rootevent/anycastddos/internal/netsim"
	"github.com/rootevent/anycastddos/internal/rrl"
	"github.com/rootevent/anycastddos/internal/rssac"
)

// The parallel sharded evaluation engine.
//
// Within each simulated minute the 13 letters are independent except for
// one coupling: the shared-fabric cityExcess totals (and the failed-legit
// sum that drives retry load). Letters therefore run concurrently on a
// worker pool, each producing an ordered list of cross-letter
// contributions instead of writing shared state; a per-minute barrier then
// replays those contributions in letter order, one float addition at a
// time — the exact operation sequence of the sequential loop — so the
// result is byte-identical for every worker count.

// cityAdd is one site's contribution to a city's excess load for a minute.
type cityAdd struct {
	city int
	qps  float64
}

// letterTick carries everything one letter's minute step must hand across
// the per-minute barrier. Slices are reused minute to minute.
type letterTick struct {
	cityAdds   []cityAdd
	failed     []float64 // per-served-site failed legit QPS, in site order
	recomputed bool      // routing changed; letterState.pending holds the diff
	err        error
}

// ErrBadCapacity marks a site whose configured capacity cannot be
// evaluated; unwrap it from Run errors with errors.Is.
var ErrBadCapacity = errors.New("core: non-positive site capacity")

// ErrWorkerPanic marks a panic recovered inside a letter worker. The
// wrapping error names the letter and minute, so a poisoned model fails
// the run with context instead of crashing the process.
var ErrWorkerPanic = errors.New("core: letter worker panicked")

// guard runs fn on behalf of a letter worker, converting a panic into a
// wrapped error carrying the letter and minute.
func (ev *Evaluator) guard(ls *letterState, minute int, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: letter %c at minute %d: %v: %w",
				ls.letter.Letter, minute, r, ErrWorkerPanic)
		}
	}()
	return fn()
}

// applyFaultOverlay refreshes the letter's effective announcement vector
// (router intent masked by fault-forced outages and link flaps) for a
// minute, returning whether it changed since the last refresh. Without a
// fault plan the overlay stays nil and every consumer reads ls.active
// directly, keeping fault-free runs byte-identical to pre-fault builds.
func (ev *Evaluator) applyFaultOverlay(ls *letterState, minute int) bool {
	if ev.flt == nil {
		return false
	}
	first := ls.effActive == nil
	if first {
		ls.effActive = make([]bool, len(ls.active))
	}
	changed := false
	lb := ls.letter.Letter
	for oi := range ls.active {
		up := ls.active[oi]
		if up {
			site := ls.states[oi].site
			if ev.flt.SiteForcedDown(lb, site, ls.uplinkOrd[oi], ls.siteUplinks[site], minute) {
				up = false
			}
		}
		if ls.effActive[oi] != up {
			ls.effActive[oi] = up
			changed = true
		}
	}
	// The first refresh populates the overlay before any epoch exists;
	// only report a change when an epoch must be recomputed.
	return changed && !first
}

// RunContext executes the minute loop under a context. It must be called
// exactly once before Probe/Dataset accessors; cancellation returns an
// error wrapping ctx.Err() and naming the minute reached, and leaves the
// evaluator unusable for further runs.
func (ev *Evaluator) RunContext(ctx context.Context) error {
	if ev.ran {
		return fmt.Errorf("core: evaluator already ran")
	}
	ev.ran = true
	return ev.runFrom(ctx, 0)
}

// runFrom executes the minute loop from a starting minute: 0 for a fresh
// run, or a checkpoint's resume minute with all mutable state already
// restored (ResumeRun). Per-minute series before start must hold their
// final values and the routing-epoch history must already be replayed;
// runFrom itself is the shared tail of both paths, so a resumed run
// executes the exact instruction sequence of the uninterrupted one.
func (ev *Evaluator) runFrom(ctx context.Context, start int) (err error) {
	if ctx == nil {
		ctx = context.Background()
	}

	letters := ev.Deployment.SortedLetters()
	states := make([]*letterState, len(letters))
	for i, lb := range letters {
		states[i] = ev.letters[lb]
	}
	var ckpt *ckptWriter
	if ev.opts.checkpointDir != "" {
		// Before the initial epochs below, so a fresh run's first record
		// carries them. Nothing is opened until the first checkpoint.
		ckpt = ev.newCkptWriter(start, states)
		defer func() { err = errors.Join(err, ckpt.close()) }()
	}
	workers := ev.opts.resolveWorkers()
	if workers > len(states) {
		workers = len(states)
	}
	if workers < 1 {
		workers = 1
	}

	if start == 0 {
		// Initial routing epochs; no collector observations (nothing to diff
		// against yet), so order across letters does not matter. The fault
		// overlay must be in place before the first epoch so minute-0 faults
		// shape the initial catchments.
		initErrs := make([]error, len(states))
		ev.forEachLetter(workers, states, func(ls *letterState) {
			initErrs[ls.index] = ev.guard(ls, 0, func() error {
				ev.applyFaultOverlay(ls, 0)
				ev.computeEpoch(ls, 0)
				return nil
			})
		})
		for _, err := range initErrs {
			if err != nil {
				return err
			}
		}
	}

	events := ev.sched.Events
	ticks := make([]letterTick, len(states))

	// Pre-event retry load is zero; during events, legitimate queries
	// that fail at attacked letters are retried at the others (§3.2.2).
	for minute := start; minute < ev.Cfg.Minutes; minute++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: run canceled at minute %d: %w", minute, err)
		}
		evIdx := ev.sched.Active(minute)

		// Pass 1: per-letter site states, sharded over the worker pool.
		// guard turns a panicking letter into an error surfaced at the
		// barrier below.
		ev.forEachLetter(workers, states, func(ls *letterState) {
			tick := &ticks[ls.index]
			tick.err = ev.guard(ls, minute, func() error {
				return ev.stepLetter(ls, minute, evIdx, events, tick)
			})
			if hb := ev.opts.heartbeat; hb != nil {
				// Liveness signal for the supervisor's watchdog, emitted
				// from the worker goroutine so a wedged letter step is
				// visible as a missing beat.
				hb(ls.letter.Letter, minute)
			}
		})

		// Barrier: merge cross-letter state in letter order, replaying the
		// same float additions the sequential loop performs.
		var failedLegitQPS float64
		for i, ls := range states {
			t := &ticks[i]
			if t.err != nil {
				return t.err
			}
			for _, ca := range t.cityAdds {
				ev.cityExcess[ca.city][minute] += ca.qps
			}
			for _, f := range t.failed {
				failedLegitQPS += f
			}
			if t.recomputed {
				// Observe copies the changes, so the pending buffer is
				// reusable across minutes.
				ev.Collector.Observe(minute+1, ls.letter.Letter, ls.pending)
				ls.pending = ls.pending[:0]
			}
		}

		// Pass 2: retry load at un-attacked letters and RSSAC records —
		// cheap per-letter arithmetic, kept on the coordinating goroutine.
		unattacked := 0
		for _, lb := range letters {
			if evIdx >= 0 && !ev.sched.Targeted(lb) {
				unattacked++
			}
		}
		for i, lb := range letters {
			ls := states[i]
			if evIdx >= 0 && !ev.sched.Targeted(lb) && unattacked > 0 {
				ls.retryServed[minute] = failedLegitQPS / float64(unattacked)
			}
			// Responses: legit (and retries) answered 1:1; attack
			// responses survive RRL at the reported ~60% suppression.
			suppress := 0.0
			if ls.attackServed[minute] > 0 {
				total := ls.attackServed[minute] + ls.legitServed[minute]
				suppress = rrl.SuppressionModel(ls.attackServed[minute] / total)
			}
			ls.responses[minute] = ls.legitServed[minute] + ls.retryServed[minute] +
				ls.attackServed[minute]*(1-suppress)

			rec := rssac.Minute{
				Minute:          minute,
				LegitServedQPS:  ls.legitServed[minute],
				RetryServedQPS:  ls.retryServed[minute],
				AttackServedQPS: ls.attackServed[minute],
				ResponseQPS:     ls.responses[minute],
			}
			if evIdx >= 0 {
				rec.AttackQueryBytes = events[evIdx].QueryBytes
				rec.AttackResponseBytes = events[evIdx].ResponseBytes
			}
			if ev.flt != nil && ev.flt.MonitorGapAt(lb, minute) {
				// The letter's RSSAC-002 measurement is down: the minute
				// goes missing from the daily report (the paper's §2.4
				// data holes) instead of being recorded as zeros.
				ev.RSSAC.RecordGap(lb, minute)
			} else {
				ev.RSSAC.Record(lb, rec)
			}
		}

		// Checkpoint before the progress callback: a caller canceling from
		// inside progress at minute m+1 is then guaranteed the checkpoint
		// for m+1 is already durable. A canceled run must write nothing
		// after the cancel — the supervisor may have abandoned this
		// goroutine and started another attempt on the same log — and a
		// letter step can outlast the loop-top check, so check again here.
		if ckpt != nil && (minute+1)%ev.opts.checkpointEvery == 0 && minute+1 < ev.Cfg.Minutes {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("core: run canceled at minute %d: %w", minute+1, err)
			}
			if err := ckpt.append(ev, minute+1, states); err != nil {
				return err
			}
		}

		if ev.opts.progress != nil {
			ev.opts.progress(Progress{Stage: StageRun, Done: minute + 1, Total: ev.Cfg.Minutes})
		}
	}

	// Epoch sequences are final: materialize each letter's minute -> epoch
	// index so post-run probe lookups are O(1).
	for _, ls := range states {
		ls.buildEpochIndex(ev.Cfg.Minutes)
	}

	ev.buildNLSeries()
	return nil
}

// forEachLetter runs fn over every letter state, fanning out across
// `workers` goroutines (inline when workers == 1). fn must only touch its
// own letter's state plus read-only evaluator fields.
func (ev *Evaluator) forEachLetter(workers int, states []*letterState, fn func(*letterState)) {
	if workers <= 1 || len(states) <= 1 {
		for _, ls := range states {
			fn(ls)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(states); i += workers {
				fn(states[i])
			}
		}(w)
	}
	wg.Wait()
}

// stepLetter advances one letter through one minute: site service quality,
// announcement state machines, and (when routing changed) the next epoch.
// Cross-letter contributions are appended to tick instead of written to
// shared state; everything else it touches is owned by this letter.
func (ev *Evaluator) stepLetter(ls *letterState, minute, evIdx int, events []attack.Event, tick *letterTick) error {
	tick.cityAdds = tick.cityAdds[:0]
	tick.failed = tick.failed[:0]
	tick.recomputed = false

	lb := ls.letter.Letter
	// A fault window opening or closing at this minute changes the
	// effective announcements: recompute routing before serving traffic.
	if ev.applyFaultOverlay(ls, minute) {
		ev.computeEpoch(ls, minute)
		tick.recomputed = true
	}
	ep := ls.epochAt(minute)
	attacked := evIdx >= 0 && ev.sched.Targeted(lb)
	var attackQPS float64
	if attacked {
		attackQPS = events[evIdx].PerLetterQPS
	}
	if ls.util == nil {
		ls.util = make([]float64, len(ls.letter.Sites))
	}
	utilization := ls.util
	for i := range utilization {
		utilization[i] = 0
	}
	for si, site := range ls.letter.Sites {
		if !ev.siteAnnounced(ls, si) {
			ls.hasRoute[si][minute] = false
			ls.loss[si][minute] = 1
			continue
		}
		if site.CapacityQPS <= 0 {
			return fmt.Errorf("core: letter %c site %d (%s) at minute %d: capacity %v: %w",
				lb, si, site.Code, minute, site.CapacityQPS, ErrBadCapacity)
		}
		capQPS := site.CapacityQPS
		if ev.flt != nil {
			// CapacityDegrade: part of the site's serving capacity is
			// gone (the compiled factor never reaches zero).
			capQPS *= ev.flt.CapacityFactor(lb, si, minute)
		}
		load := netsim.Load{
			LegitQPS:  ep.LegitFrac[si] * ls.letter.NormalQPS,
			AttackQPS: ep.AttackFrac[si] * attackQPS,
		}
		st, err := netsim.Evaluate(capQPS, load, ev.Cfg.Netsim)
		if err != nil {
			return fmt.Errorf("core: letter %c site %d (%s) at minute %d: %w",
				lb, si, site.Code, minute, err)
		}
		if ev.flt != nil {
			// PacketLossBurst: extra path loss toward the site, composed
			// with the queue model's own loss as independent processes.
			if xl := ev.flt.ExtraLossFrac(lb, si, minute); xl > 0 {
				st.LossFrac = 1 - (1-st.LossFrac)*(1-xl)
				st.ServedQPS = st.OfferedQPS * (1 - st.LossFrac)
			}
		}
		if site.ShallowBuffers && st.ExtraDelayMs > 60 {
			st.ExtraDelayMs = 60
		}
		utilization[si] = st.Utilization
		ls.hasRoute[si][minute] = true
		ls.loss[si][minute] = float32(st.LossFrac)
		ls.delay[si][minute] = float32(st.ExtraDelayMs)

		served := st.ServedQPS
		frac := 0.0
		if st.OfferedQPS > 0 {
			frac = served / st.OfferedQPS
		}
		ls.legitServed[minute] += load.LegitQPS * frac
		ls.attackServed[minute] += load.AttackQPS * frac
		tick.failed = append(tick.failed, load.LegitQPS*(1-frac))

		// Shared-infrastructure stress for collateral damage.
		if excess := st.OfferedQPS - served; excess > 0 {
			if ci, ok := ev.cityIdx[site.City.Code]; ok {
				tick.cityAdds = append(tick.cityAdds, cityAdd{city: ci, qps: excess})
			}
		}
	}
	// Step announcement state machines.
	changed := false
	act := ls.effective()
	for oi := range ls.states {
		os := &ls.states[oi]
		u := utilization[os.site]
		if os.flap && minute > 0 {
			// Session failures also follow shared-fabric congestion in
			// the site's city (previous minute's totals — fully merged at
			// the last barrier, so letter processing order cannot matter).
			if ci, ok := ev.cityIdx[ls.letter.Sites[os.site].City.Code]; ok {
				if cu := ev.cityExcess[ci][minute-1] / flapExcessQPS; cu > u {
					u = cu
				}
			}
		}
		if !act[oi] {
			u = 0
		}
		if os.router.Step(minute, u) {
			changed = true
		}
		ls.active[oi] = os.router.Announced()
	}
	// H-Root primary/backup: activate the backup while the primary is
	// down (fault-forced primary outages count as down).
	if ls.letter.PrimaryBackup && len(ls.letter.Sites) >= 2 {
		primaryUp := false
		for oi, o := range ls.origins {
			if o.Site == 0 && ls.active[oi] &&
				(ev.flt == nil || !ev.flt.SiteForcedDown(lb, 0, ls.uplinkOrd[oi], ls.siteUplinks[0], minute)) {
				primaryUp = true
			}
		}
		for oi, o := range ls.origins {
			if o.Site != 0 {
				want := !primaryUp
				if ls.active[oi] != want {
					if want {
						ls.states[oi].router.ForceAnnounce()
					} else {
						ls.states[oi].router.ForceWithdraw(minute)
					}
					ls.active[oi] = want
					changed = true
				}
			}
		}
	}
	if changed {
		// Router state moved; refresh the overlay so the new epoch sees
		// intent and faults as of the minute the epoch takes effect.
		ev.applyFaultOverlay(ls, minute+1)
		ev.computeEpoch(ls, minute+1)
		tick.recomputed = true
	}
	return nil
}
