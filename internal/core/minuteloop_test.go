package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/rootevent/anycastddos/internal/anycast"
	"github.com/rootevent/anycastddos/internal/attack"
	"github.com/rootevent/anycastddos/internal/faults"
	"github.com/rootevent/anycastddos/internal/netsim"
	"github.com/rootevent/anycastddos/internal/rssac"
)

// siteAnnouncedRef is the per-site scan fillAnnounced replaced: whether any
// of a site's uplinks is announced, fault overlay included.
func siteAnnouncedRef(ls *letterState, site int) bool {
	act := ls.effective()
	for oi, o := range ls.origins {
		if o.Site == site && act[oi] {
			return true
		}
	}
	return false
}

// TestFillAnnouncedMatchesPerSiteScan drives every letter of a real
// deployment through random announcement vectors — router intent alone,
// then masked by a fault overlay — and requires the one-pass scratch to
// equal the per-site scan at every site, including after a vector with
// more sites up (stale trues must not survive).
func TestFillAnnouncedMatchesPerSiteScan(t *testing.T) {
	ev, err := NewEvaluator(tinyConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for _, lb := range ev.Deployment.SortedLetters() {
		ls := ev.letters[lb]
		for trial := 0; trial < 200; trial++ {
			p := []float64{0, 0.05, 0.5, 0.95, 1}[trial%5]
			for oi := range ls.active {
				ls.active[oi] = rng.Float64() < p
			}
			ls.effActive = nil
			if trial%2 == 1 {
				ls.effActive = make([]bool, len(ls.active))
				for oi := range ls.effActive {
					ls.effActive[oi] = ls.active[oi] && rng.Float64() < 0.7
				}
			}
			ls.fillAnnounced()
			for si := range ls.letter.Sites {
				if got, want := ls.announced[si], siteAnnouncedRef(ls, si); got != want {
					t.Fatalf("letter %c trial %d site %d: announced = %v, per-site scan says %v", lb, trial, si, got, want)
				}
			}
		}
	}
}

// engineState is everything the minute loop writes, per letter, and every
// router's state at the end of the run.
type engineState struct {
	loss, delay map[byte][][]float32
	hasRoute    map[byte][][]bool
	legit, atk  map[byte][]float64
	retry, resp map[byte][]float64
	epochStarts map[byte][]int
	routers     map[byte][]netsim.RouterState
	cityExcess  [][]float64
	updates     interface{}
	rssac       map[byte]interface{}
}

// spanEnds counts the quiet spans a run crossed by what ended them; a span
// may count under several causes. longest is the longest span.
type spanEnds struct {
	spans, minutes                             int
	schedule, fault, router, checkpoint, other int
	dayCrossed                                 bool
	longest                                    [2]int
}

// classify counts the span [from, end) of ev's run.
func (c *spanEnds) classify(ev *Evaluator, from, end, every int) {
	c.spans++
	c.minutes += end - from
	if end-from > c.longest[1]-c.longest[0] {
		c.longest = [2]int{from, end}
	}
	if from/rssac.MinutesPerDay != (end-1)/rssac.MinutesPerDay {
		c.dayCrossed = true
	}
	if end == ev.Cfg.Minutes {
		return
	}
	known := false
	if ev.evActive[end] != ev.evActive[end-1] {
		c.schedule++
		known = true
	}
	if every > 0 && end%every == 0 {
		c.checkpoint++
		known = true
	}
	fault, router := false, false
	for _, ls := range ev.letters {
		fault = fault || ls.flt.NextEdge(end-1) == end
		for _, ep := range ls.epochs {
			// A router that changes at minute end reroutes from end+1.
			router = router || ep.Start == end+1
		}
	}
	if fault {
		c.fault++
	}
	if router {
		c.router++
	}
	if !known && !fault && !router {
		c.other++
	}
}

// runEngineState runs cfg to the end, requiring progress once per simulated
// minute, in order.
func runEngineState(t *testing.T, cfg Config, noReplay bool, workers int, plan *faults.Plan, extra ...Option) (engineState, spanEnds) {
	t.Helper()
	done := 0
	progress := WithProgress(func(p Progress) {
		if p.Stage == StageRun {
			if done++; p.Done != done {
				t.Errorf("progress reports minute %d done after %d minutes", p.Done, done)
			}
		}
	})
	ev, err := NewEvaluator(cfg, append(engineStateOpts(workers, plan), append(extra, progress)...)...)
	if err != nil {
		t.Fatal(err)
	}
	ev.noSiteReplay = noReplay
	var spans [][2]int
	ev.onQuietSpan = func(from, end int) { spans = append(spans, [2]int{from, end}) }
	if err := ev.Run(); err != nil {
		t.Fatal(err)
	}
	if done != cfg.Minutes {
		t.Errorf("progress fired %d times in %d minutes", done, cfg.Minutes)
	}
	var ends spanEnds
	for _, sp := range spans {
		ends.classify(ev, sp[0], sp[1], ev.opts.checkpointEvery)
	}
	return engineStateOf(ev), ends
}

func engineStateOpts(workers int, plan *faults.Plan) []Option {
	opts := []Option{WithWorkers(workers), WithSchedule(resumeSchedule())}
	if plan != nil {
		opts = append(opts, WithFaults(plan))
	}
	return opts
}

func engineStateOf(ev *Evaluator) engineState {
	st := engineState{
		loss: map[byte][][]float32{}, delay: map[byte][][]float32{}, hasRoute: map[byte][][]bool{},
		legit: map[byte][]float64{}, atk: map[byte][]float64{}, retry: map[byte][]float64{}, resp: map[byte][]float64{},
		epochStarts: map[byte][]int{}, routers: map[byte][]netsim.RouterState{}, rssac: map[byte]interface{}{},
		cityExcess: cityRows(ev), updates: ev.Collector.Updates(),
	}
	for lb, ls := range ev.letters {
		st.loss[lb], st.delay[lb], st.hasRoute[lb] = siteRows(ev, ls)
		st.legit[lb], st.atk[lb], st.retry[lb], st.resp[lb] = ls.legitServed, ls.attackServed, ls.retryServed, ls.responses
		for _, ep := range ls.epochs {
			st.epochStarts[lb] = append(st.epochStarts[lb], ep.Start)
		}
		for _, os := range ls.states {
			st.routers[lb] = append(st.routers[lb], os.router.State())
		}
		st.rssac[lb] = ev.RSSACReports(lb)
	}
	return st
}

// compareEngineStates names every series in which got differs from ref.
func compareEngineStates(t *testing.T, label string, got, ref engineState) {
	t.Helper()
	if reflect.DeepEqual(got, ref) {
		return
	}
	for lb := range ref.loss {
		for _, f := range []struct {
			what     string
			got, ref interface{}
		}{
			{"loss", got.loss[lb], ref.loss[lb]}, {"delay", got.delay[lb], ref.delay[lb]},
			{"hasRoute", got.hasRoute[lb], ref.hasRoute[lb]}, {"legitServed", got.legit[lb], ref.legit[lb]},
			{"attackServed", got.atk[lb], ref.atk[lb]}, {"retryServed", got.retry[lb], ref.retry[lb]},
			{"responses", got.resp[lb], ref.resp[lb]}, {"epochs", got.epochStarts[lb], ref.epochStarts[lb]},
			{"routers", got.routers[lb], ref.routers[lb]}, {"rssac", got.rssac[lb], ref.rssac[lb]},
		} {
			if !reflect.DeepEqual(f.got, f.ref) {
				t.Errorf("%s: letter %c %s differs from the from-scratch run", label, lb, f.what)
			}
		}
	}
	if !reflect.DeepEqual(got.cityExcess, ref.cityExcess) {
		t.Errorf("%s: cityExcess differs", label)
	}
	if !reflect.DeepEqual(got.updates, ref.updates) {
		t.Errorf("%s: BGP update stream differs", label)
	}
}

// loadedSitePlan is base plus, inside every event of the schedule, a
// CapacityDegrade and a PacketLossBurst window on the two absorbing sites of
// each attacked letter that its initial routing hands the largest shares of
// the flood. The windows overlap in the event's middle, and each opens and
// closes while the flood is on, so they move the service of sites that carry
// load rather than of idle ones.
func loadedSitePlan(t *testing.T, cfg Config, sched *attack.Schedule, base *faults.Plan) *faults.Plan {
	t.Helper()
	ev, err := NewEvaluator(cfg, WithSchedule(sched))
	if err != nil {
		t.Fatal(err)
	}
	plan := &faults.Plan{Name: base.Name + "+loaded-sites", Events: append([]faults.Event(nil), base.Events...)}
	for _, lb := range ev.Deployment.SortedLetters() {
		ls := ev.letters[lb]
		if !ls.targeted {
			continue
		}
		share := ev.routeEntryFor(ls, ls.active).attackFrac
		var sites []int
		for si, s := range ls.letter.Sites {
			if s.Policy != anycast.Withdraw && share[si] > 0 {
				sites = append(sites, si)
			}
		}
		sort.SliceStable(sites, func(i, j int) bool { return share[sites[i]] > share[sites[j]] })
		for _, si := range sites[:min(2, len(sites))] {
			for _, e := range sched.Events {
				l := e.EndMinute - e.StartMinute
				plan.Events = append(plan.Events,
					faults.Event{Kind: faults.CapacityDegrade, Start: e.StartMinute + l/8, Duration: l / 2, Letter: lb, Site: si, Severity: 0.5},
					faults.Event{Kind: faults.PacketLossBurst, Start: e.StartMinute + 3*l/8, Duration: l / 2, Letter: lb, Site: si, Severity: 0.25})
			}
		}
	}
	return plan
}

// TestSiteReplayIsAnEquivalence proves the steady-minute shortcut and the
// quiet spans change nothing: with them on (any worker count) and with every
// minute evaluated from scratch, each letter's per-site loss, delay and
// route series, its traffic series, its epoch sequence, its routers' final
// state, the shared city-excess totals, the BGP update stream and the RSSAC
// reports are identical — floats compared as bits by reflect.DeepEqual — for
// a fault-free and a faulted run. The faulted plan opens and closes outage,
// flap, degrade and burst windows inside both quiet and attacked minutes,
// and degrade and burst windows on loaded sites of every attacked letter.
// The span runs must have crossed spans ended by a schedule edge, a fault
// edge and a router's own change, and a two-day run one that crosses an
// RSSAC day boundary. Every run reports progress once per minute, and one
// canceled inside a span names the minute it reached. A run checkpointing every 7 minutes, so that replayed
// spans cross record boundaries, is stopped at a middle record and resumed:
// its state and its checkpoint log must equal those of a from-scratch run
// checkpointing at the same minutes.
func TestSiteReplayIsAnEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("several engine runs")
	}
	cfg := resumeConfig(5)
	for _, tc := range []struct {
		name string
		plan *faults.Plan
	}{
		{"fault-free", nil},
		{"faulted", loadedSitePlan(t, cfg, resumeSchedule(), resumeFaultPlan())},
	} {
		name, plan := tc.name, tc.plan
		ref, _ := runEngineState(t, cfg, true, 1, plan)
		for _, workers := range []int{1, 3} {
			got, ends := runEngineState(t, cfg, false, workers, plan)
			label := fmt.Sprintf("%s, %d workers", name, workers)
			compareEngineStates(t, label, got, ref)
			t.Logf("%s: spans %+v", label, ends)
			if ends.schedule == 0 || ends.router == 0 || (plan != nil && ends.fault == 0) || ends.other > 0 {
				t.Errorf("%s: spans %+v: want some ended by a schedule edge, a router change and (faulted) a fault edge, none by anything else", label, ends)
			}
			// Canceled inside a span, the run names the minute it reached.
			from, end := ends.longest[0], ends.longest[1]
			if end-from < 3 {
				t.Fatalf("%s: longest span [%d, %d) leaves no minute inside it to cancel at", label, from, end)
			}
			ctx, cancel := context.WithCancel(context.Background())
			ev, err := NewEvaluator(cfg, append(engineStateOpts(workers, plan), WithContext(ctx), WithProgress(func(p Progress) {
				if p.Stage == StageRun && p.Done == from+1 {
					cancel()
				}
			}))...)
			if err != nil {
				t.Fatal(err)
			}
			err = ev.Run()
			cancel()
			if want := fmt.Sprintf("canceled at minute %d", from+1); !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: canceled inside span [%d, %d): err = %v, want context.Canceled naming %q", label, from, end, err, want)
			}
		}

		twoDays := cfg
		twoDays.Minutes = 2 * rssac.MinutesPerDay
		ref, _ = runEngineState(t, twoDays, true, 1, plan)
		got, ends := runEngineState(t, twoDays, false, 1, plan)
		compareEngineStates(t, name+", two days", got, ref)
		t.Logf("%s, two days: spans %+v", name, ends)
		if !ends.dayCrossed {
			t.Errorf("%s, two days: spans %+v: none crosses the RSSAC day boundary", name, ends)
		}

		const every, stop = 7, 63
		refDir, dir := t.TempDir(), t.TempDir()
		ref, _ = runEngineState(t, cfg, true, 1, plan, WithCheckpoint(refDir, every))
		ctx, cancel := context.WithCancel(context.Background())
		_, err := ResumeRun(dir, cfg, append(engineStateOpts(1, plan), WithCheckpoint(dir, every),
			WithContext(ctx), WithProgress(func(p Progress) {
				if p.Stage == StageRun && p.Done == stop {
					cancel()
				}
			}))...)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: first segment: err = %v, want context.Canceled", name, err)
		}
		ev, err := ResumeRun(dir, cfg, append(engineStateOpts(1, plan), WithCheckpoint(dir, every))...)
		if err != nil {
			t.Fatalf("%s: resume at minute %d: %v", name, stop, err)
		}
		label := fmt.Sprintf("%s, checkpointed every %d, resumed at %d", name, every, stop)
		compareEngineStates(t, label, engineStateOf(ev), ref)
		if !bytes.Equal(readLog(t, dir), readLog(t, refDir)) {
			t.Errorf("%s: checkpoint log differs from the from-scratch run's", label)
		}
	}
}
