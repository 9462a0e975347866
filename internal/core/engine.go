package core

import (
	"context"
	"errors"
	"fmt"
	"math"
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
	replayed   bool      // the site pass replayed the minute before's
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
			err = workerPanic(ls, minute, r)
		}
	}()
	return fn()
}

// workerPanic is the error a panic recovered from letter ls's work at a
// minute fails the run with.
func workerPanic(ls *letterState, minute int, r any) error {
	return fmt.Errorf("core: letter %c at minute %d: %v: %w", ls.letter.Letter, minute, r, ErrWorkerPanic)
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
	// Minutes in [quietFrom, quietEnd) are a quiet span: see quietSpanEnd.
	// A letter with a controller decides every minute, so none are crossed
	// then, nor when the site pass is forced to run from scratch.
	spans := !ev.noSiteReplay
	for _, ls := range states {
		spans = spans && ls.adaptive == nil
	}
	quietFrom, quietEnd := 0, 0

	// Pre-event retry load is zero; during events, legitimate queries
	// that fail at attacked letters are retried at the others (§3.2.2).
	for minute := start; minute < ev.Cfg.Minutes; minute++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: run canceled at minute %d: %w", minute, err)
		}
		evIdx := ev.sched.Active(minute)

		if minute < quietEnd {
			// Every input of the minute equals the minute before's, so its
			// answers do too; the routers catch up at the span's last minute.
			if err := repeatMinute(states, minute); err != nil {
				return err
			}
			if minute+1 == quietEnd {
				ev.endQuietSpan(states, quietFrom, quietEnd)
			}
		} else {
			quiet, err := ev.stepMinute(minute, evIdx, workers, states, ticks, reroute)
			if err != nil {
				return err
			}
			if spans && quiet {
				quietFrom, quietEnd = minute+1, ev.quietSpanEnd(states, minute+1, evIdx)
				if ev.onQuietSpan != nil && quietEnd > quietFrom {
					ev.onQuietSpan(quietFrom, quietEnd)
				}
			}
		}

		// RSSAC records, letter by letter: the float additions of a daily
		// report happen once per minute, in this order, in every path.
		for i, lb := range letters {
			ls := states[i]
			if ls.flt.MonitorGapAt(minute) {
				// The letter's RSSAC-002 measurement is down: the minute
				// goes missing from the daily report (the paper's §2.4
				// data holes) instead of being recorded as zeros.
				ev.RSSAC.RecordGap(lb, minute)
			} else {
				ev.RSSAC.Record(lb, ls.rssacMinute(minute, evIdx, events))
			}
		}

		// Checkpoint before the progress callback: a caller canceling from
		// inside progress at minute m+1 is then guaranteed the checkpoint
		// for m+1 is already durable.
		if ckpt != nil && (minute+1)%ev.opts.checkpointEvery == 0 && minute+1 < ev.Cfg.Minutes {
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

// stepMinute runs one minute of every letter in full: site passes and
// announcement state machines, the routing of the letters whose
// announcements moved, the cross-letter barrier, and retry load and
// responses. It reports the minute quiet: every letter replayed the minute
// before's site pass and no announcement moved.
func (ev *Evaluator) stepMinute(minute, evIdx, workers int, states []*letterState, ticks []letterTick, reroute []*letterState) (quiet bool, err error) {
	events := ev.sched.Events

	// Pass 1: per-letter site states and announcement state machines,
	// letter by letter on this goroutine. The deployment is the same 13
	// letters at every topology scale, so this is tens of microseconds
	// a minute — less than waking a second goroutine costs. guard turns
	// a panicking letter into an error surfaced at the barrier below.
	quiet = true
	reroute = reroute[:0]
	for _, ls := range states {
		tick := &ticks[ls.index]
		tick.err = ev.guard(ls, minute, func() error {
			return ev.stepLetter(ls, minute, evIdx, events, tick)
		})
		if tick.reroute {
			reroute = append(reroute, ls)
		}
		quiet = quiet && tick.replayed && !tick.reroute
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
	clear(ev.cityMinute)
	for i, ls := range states {
		t := &ticks[i]
		if t.err != nil {
			return false, t.err
		}
		for _, ca := range t.cityAdds {
			ev.cityMinute[ca.city] += ca.qps
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
	for ci, q := range ev.cityMinute {
		ev.cityExcess[ci].set(minute, math.Float64bits(q))
	}

	// Pass 2: retry load at un-attacked letters and responses — cheap
	// per-letter arithmetic, kept on the coordinating goroutine.
	unattacked := 0
	for _, ls := range states {
		if evIdx >= 0 && !ls.targeted {
			unattacked++
		}
	}
	for _, ls := range states {
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
	}
	return quiet, nil
}

// rssacMinute is the letter's RSSAC-002 record of a minute.
func (ls *letterState) rssacMinute(minute, evIdx int, events []attack.Event) rssac.Minute {
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
	return rec
}

// quietSpanEnd returns where the quiet span that starts at minute `from`
// ends, `from` itself when there is none. Minute from-1 was quiet: every
// letter replayed its site pass and no announcement moved. The minutes after
// it stay so, each a copy of the one before, until the first of
//   - a schedule edge, where the attack rate moves;
//   - a fault-window edge of any letter, where its announcement overlay or
//     its sites' capacity and loss may move;
//   - a router's next state change: its input is constant across the span
//     (its site's utilization is the replayed pass's, and a flappy uplink's
//     city congestion is the sum of the unchanged cross-letter ticks), so
//     Router.NextChange computes it;
//   - the next checkpoint minute, whose record must hold the routers as
//     stepped up to it;
//   - the horizon.
//
// It leaves every router's span input in originState.quietU for
// endQuietSpan.
func (ev *Evaluator) quietSpanEnd(states []*letterState, from, evIdx int) int {
	end := ev.Cfg.Minutes
	if ev.opts.checkpointDir != "" {
		end = min(end, (from/ev.opts.checkpointEvery+1)*ev.opts.checkpointEvery)
	}
	for _, ls := range states {
		end = min(end, ls.flt.NextEdge(from-1))
		act := ls.effective()
		for oi := range ls.states {
			os := &ls.states[oi]
			os.quietU = ev.routerInput(ls, oi, from, act)
			end = min(end, os.router.NextChange(from, os.quietU))
		}
	}
	for m := from; m < end; m++ {
		if int(ev.evActive[m]) != evIdx {
			return m
		}
	}
	return end
}

// endQuietSpan brings the engine state a quiet span [from, end) leaves
// behind up to date: every router advanced over the span's minutes, and the
// site pass's minute moved to the span's last.
func (ev *Evaluator) endQuietSpan(states []*letterState, from, end int) {
	for _, ls := range states {
		for oi := range ls.states {
			os := &ls.states[oi]
			os.router.Skip(from, end, os.quietU)
		}
		ls.sitesMinute = end - 1
	}
}

// repeatMinute fills every letter's traffic series at a quiet minute with
// the minute before's: same inputs, same bits. One recover covers the
// letters, so a panic fails the run as a letter worker's would.
func repeatMinute(states []*letterState, minute int) (err error) {
	i := 0
	defer func() {
		if r := recover(); r != nil {
			err = workerPanic(states[i], minute, r)
		}
	}()
	for ; i < len(states); i++ {
		ls := states[i]
		ls.legitServed[minute] = ls.legitServed[minute-1]
		ls.attackServed[minute] = ls.attackServed[minute-1]
		ls.retryServed[minute] = ls.retryServed[minute-1]
		ls.responses[minute] = ls.responses[minute-1]
	}
	return nil
}

// routerInput is the utilization uplink oi's router steps on at a minute:
// its site's, raised for a flappy uplink to the congestion of the shared
// fabric in the site's city over the minute before, and 0 while act says
// the uplink is down.
func (ev *Evaluator) routerInput(ls *letterState, oi, minute int, act []bool) float64 {
	if !act[oi] {
		return 0
	}
	os := &ls.states[oi]
	u := ls.util[os.site]
	if os.flap && minute > 0 {
		// Session failures also follow shared-fabric congestion in the
		// site's city (previous minute's totals — fully merged at the last
		// barrier, so letter processing order cannot matter).
		if ci := ls.siteCity[os.site]; ci >= 0 {
			if cu := ev.excessAt(ci, minute-1) / flapExcessQPS; cu > u {
				u = cu
			}
		}
	}
	return u
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
	tick.replayed = false

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
		tick.replayed = true
	} else {
		if err := ev.serveSites(ls, minute, attackQPS, tick); err != nil {
			return err
		}
		ls.sitesEpochs, ls.sitesAttackQPS = len(ls.epochs), attackQPS
	}
	ls.sitesMinute = minute

	// Step announcement state machines, or let the letter's controller
	// move them.
	changed := false
	if ls.adaptive != nil {
		changed = ls.steerAdaptive(minute)
	} else {
		act := ls.effective()
		for oi := range ls.states {
			r := ls.states[oi].router
			if r.Step(minute, ev.routerInput(ls, oi, minute, act)) {
				changed = true
			}
			ls.active[oi] = r.Announced()
		}
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

// steerAdaptive runs the letter's controller on the minute's site
// observations and moves every uplink router to its site's decision. It
// reports whether an announcement changed.
func (ls *letterState) steerAdaptive(minute int) bool {
	want := ls.adaptive.Decide(minute, ls.obs)
	changed := false
	for oi := range ls.states {
		r := ls.states[oi].router
		if want[ls.states[oi].site] {
			changed = r.ForceAnnounce() || changed
		} else {
			changed = r.ForceWithdraw(minute) || changed
		}
		ls.active[oi] = r.Announced()
	}
	return changed
}

// serveSites evaluates every site of a letter for a minute: service quality
// into the letter's site series, per-site utilization into ls.util, the
// controller's observations into ls.obs (when it has one), and the
// cross-letter contributions into tick.
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
	obs := ls.obs
	for si, site := range ls.letter.Sites {
		if !ls.announced[si] {
			ls.sites[si].set(minute, withdrawnSite)
			if obs != nil {
				obs[si] = netsim.SiteObs{CapacityQPS: site.CapacityQPS}
			}
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
		if obs != nil {
			obs[si] = netsim.SiteObs{Announced: true, CapacityQPS: site.CapacityQPS,
				OfferedQPS: st.OfferedQPS, ServedQPS: st.ServedQPS}
		}
		ls.sites[si].set(minute, siteState{route: true,
			loss: math.Float32bits(float32(st.LossFrac)), delay: math.Float32bits(float32(st.ExtraDelayMs))})

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
// minute's: ls.util, the letter's tick and its site series already hold its
// answers. It copies the totals pass 2 reads.
//
//repolint:hot
func (ls *letterState) replaySites(minute int) {
	ls.legitServed[minute] = ls.legitServed[minute-1]
	ls.attackServed[minute] = ls.attackServed[minute-1]
}
