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
// sum that drives retry load). A letter's step therefore produces an
// ordered list of cross-letter contributions instead of writing shared
// state, and a per-minute barrier replays those contributions in letter
// order, one float addition at a time. What runs concurrently on the worker
// pool is the expensive, topology-sized part of a minute — recomputing the
// routing of the letters whose announcements moved — which touches only
// that letter's state, so the result is byte-identical for every worker
// count.

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
	reroute    bool      // announcements moved this minute; the next epoch is still to compute
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
	for oi := range ls.active {
		up := ls.active[oi]
		if up {
			site := ls.states[oi].site
			if ls.flt.SiteForcedDown(site, ls.uplinkOrd[oi], ls.siteUplinks[site], minute) {
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
	reroute := make([]*letterState, 0, len(states))

	// Pre-event retry load is zero; during events, legitimate queries
	// that fail at attacked letters are retried at the others (§3.2.2).
	for minute := start; minute < ev.Cfg.Minutes; minute++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: run canceled at minute %d: %w", minute, err)
		}
		evIdx := ev.sched.Active(minute)

		// Pass 1: per-letter site states and announcement state machines,
		// letter by letter on this goroutine. The deployment is the same 13
		// letters at every topology scale, so this is tens of microseconds
		// a minute — less than waking a second goroutine costs. guard turns
		// a panicking letter into an error surfaced at the barrier below.
		reroute = reroute[:0]
		for _, ls := range states {
			tick := &ticks[ls.index]
			tick.err = ev.guard(ls, minute, func() error {
				return ev.stepLetter(ls, minute, evIdx, events, tick)
			})
			if tick.reroute {
				reroute = append(reroute, ls)
			}
			if hb := ev.opts.heartbeat; hb != nil {
				// Liveness signal for the supervisor's watchdog, emitted as
				// each letter's step completes so a wedged one is visible
				// as a missing beat.
				hb(ls.letter.Letter, minute)
			}
		}
		// Letters whose announcements moved recompute their routing — the
		// one part of a minute that grows with the topology — sharded over
		// the worker pool. The new epoch sees intent and faults as of the
		// minute it takes effect.
		ev.forEachLetter(workers, reroute, func(ls *letterState) {
			tick := &ticks[ls.index]
			tick.err = ev.guard(ls, minute, func() error {
				ev.applyFaultOverlay(ls, minute+1)
				ev.computeEpoch(ls, minute+1)
				return nil
			})
			tick.recomputed = true
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
		for _, ls := range states {
			if evIdx >= 0 && !ls.targeted {
				unattacked++
			}
		}
		for i, lb := range letters {
			ls := states[i]
			if evIdx >= 0 && !ls.targeted && unattacked > 0 {
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
			if ls.flt.MonitorGapAt(minute) {
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
	// The calling goroutine takes shard 0 itself instead of sleeping through
	// the fan-out: one goroutine fewer to start and to wake.
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(states); i += workers {
				fn(states[i])
			}
		}(w)
	}
	for i := 0; i < len(states); i += workers {
		fn(states[i])
	}
	wg.Wait()
}

// stepLetter advances one letter through one minute: site service quality
// and announcement state machines; tick.reroute reports that they moved and
// the next epoch must be computed. Cross-letter contributions are appended
// to tick instead of written to shared state; everything else it touches is
// owned by this letter.
func (ev *Evaluator) stepLetter(ls *letterState, minute, evIdx int, events []attack.Event, tick *letterTick) error {
	tick.recomputed = false
	tick.reroute = false

	// A fault window opening or closing at this minute changes the
	// effective announcements: recompute routing before serving traffic.
	if ev.applyFaultOverlay(ls, minute) {
		ev.computeEpoch(ls, minute)
		tick.recomputed = true
	}
	attacked := evIdx >= 0 && ls.targeted
	var attackQPS float64
	if attacked {
		attackQPS = events[evIdx].PerLetterQPS
	}
	// A site's minute is a function of the epoch in force, the attack rate
	// and the fault factors. Most minutes none of them moved — before the
	// event, and between flaps during it — and the previous minute's
	// answers are this minute's.
	if !ev.noSiteReplay && ls.sitesMinute == minute-1 && ls.sitesEpochs == len(ls.epochs) &&
		ls.sitesAttackQPS == attackQPS && ls.flt.ServiceSteadyAt(minute) {
		ls.replaySites(minute)
	} else {
		if err := ev.serveSites(ls, minute, attackQPS, tick); err != nil {
			return err
		}
		ls.sitesEpochs, ls.sitesAttackQPS = len(ls.epochs), attackQPS
	}
	ls.sitesMinute = minute
	utilization := ls.util

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
			if ci := ls.siteCity[os.site]; ci >= 0 {
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
				!ls.flt.SiteForcedDown(0, ls.uplinkOrd[oi], ls.siteUplinks[0], minute) {
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
	// Router state moved: the caller computes the epoch that takes effect
	// next minute.
	tick.reroute = changed
	return nil
}

// serveSites evaluates every site of a letter for a minute: service quality
// into the letter's per-site series, per-site utilization into ls.util, and
// the cross-letter contributions into tick.
func (ev *Evaluator) serveSites(ls *letterState, minute int, attackQPS float64, tick *letterTick) error {
	tick.cityAdds = tick.cityAdds[:0]
	tick.failed = tick.failed[:0]
	lb := ls.letter.Letter
	ep := ls.epochAt(minute)
	utilization := ls.util
	for i := range utilization {
		utilization[i] = 0
	}
	ls.fillAnnounced()
	for si, site := range ls.letter.Sites {
		if !ls.announced[si] {
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
			capQPS *= ls.flt.CapacityFactor(si, minute)
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
			if xl := ls.flt.ExtraLossFrac(si, minute); xl > 0 {
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
			if ci := ls.siteCity[si]; ci >= 0 {
				tick.cityAdds = append(tick.cityAdds, cityAdd{city: int(ci), qps: excess})
			}
		}
	}
	return nil
}

// replaySites is serveSites for a minute whose inputs equal the previous
// minute's: the per-site series repeat, and ls.util and the letter's tick
// already hold what serveSites would compute again.
//
//repolint:hot
func (ls *letterState) replaySites(minute int) {
	for si := range ls.hasRoute {
		ls.hasRoute[si][minute] = ls.hasRoute[si][minute-1]
		ls.loss[si][minute] = ls.loss[si][minute-1]
		ls.delay[si][minute] = ls.delay[si][minute-1]
	}
	ls.legitServed[minute] = ls.legitServed[minute-1]
	ls.attackServed[minute] = ls.attackServed[minute-1]
}
