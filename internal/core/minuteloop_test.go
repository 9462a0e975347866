package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/rootevent/anycastddos/internal/faults"
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

// engineState is everything the minute loop writes, per letter.
type engineState struct {
	loss, delay map[byte][][]float32
	hasRoute    map[byte][][]bool
	legit, atk  map[byte][]float64
	retry, resp map[byte][]float64
	epochStarts map[byte][]int
	cityExcess  [][]float64
	updates     interface{}
	rssac       map[byte]interface{}
}

func runEngineState(t *testing.T, noReplay bool, workers int, plan *faults.Plan, extra ...Option) engineState {
	t.Helper()
	ev, err := NewEvaluator(resumeConfig(5), append(engineStateOpts(workers, plan), extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	ev.noSiteReplay = noReplay
	if err := ev.Run(); err != nil {
		t.Fatal(err)
	}
	return engineStateOf(ev)
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
		epochStarts: map[byte][]int{}, rssac: map[byte]interface{}{},
		cityExcess: cityRows(ev), updates: ev.Collector.Updates(),
	}
	for lb, ls := range ev.letters {
		st.loss[lb], st.delay[lb], st.hasRoute[lb] = siteRows(ev, ls)
		st.legit[lb], st.atk[lb], st.retry[lb], st.resp[lb] = ls.legitServed, ls.attackServed, ls.retryServed, ls.responses
		for _, ep := range ls.epochs {
			st.epochStarts[lb] = append(st.epochStarts[lb], ep.Start)
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
			{"rssac", got.rssac[lb], ref.rssac[lb]},
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

// TestSiteReplayIsAnEquivalence proves the steady-minute shortcut changes
// nothing: with it on (any worker count) and with every minute evaluated
// from scratch, each letter's per-site loss, delay and route series, its
// traffic series, its epoch sequence, the shared city-excess totals, the
// BGP update stream and the RSSAC reports are identical — floats compared
// as bits by reflect.DeepEqual — for a fault-free and a faulted run whose
// plan opens and closes degrade, burst, outage and flap windows inside both
// quiet and attacked minutes. A run checkpointing every 7 minutes, so that
// replayed spans cross record boundaries, is stopped at a middle record and
// resumed: its state and its checkpoint log must equal those of a
// from-scratch run checkpointing at the same minutes.
func TestSiteReplayIsAnEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("several engine runs")
	}
	for name, plan := range map[string]*faults.Plan{"fault-free": nil, "faulted": resumeFaultPlan()} {
		ref := runEngineState(t, true, 1, plan)
		for _, workers := range []int{1, 3} {
			compareEngineStates(t, fmt.Sprintf("%s, %d workers", name, workers), runEngineState(t, false, workers, plan), ref)
		}

		const every, stop = 7, 63
		refDir, dir := t.TempDir(), t.TempDir()
		ref = runEngineState(t, true, 1, plan, WithCheckpoint(refDir, every))
		ctx, cancel := context.WithCancel(context.Background())
		_, err := ResumeRun(dir, resumeConfig(5), append(engineStateOpts(1, plan), WithCheckpoint(dir, every),
			WithContext(ctx), WithProgress(func(p Progress) {
				if p.Stage == StageRun && p.Done == stop {
					cancel()
				}
			}))...)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: first segment: err = %v, want context.Canceled", name, err)
		}
		ev, err := ResumeRun(dir, resumeConfig(5), append(engineStateOpts(1, plan), WithCheckpoint(dir, every))...)
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
