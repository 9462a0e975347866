package core

import (
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

func runEngineState(t *testing.T, noReplay bool, workers int, plan *faults.Plan) engineState {
	t.Helper()
	opts := []Option{WithWorkers(workers), WithSchedule(resumeSchedule())}
	if plan != nil {
		opts = append(opts, WithFaults(plan))
	}
	ev, err := NewEvaluator(resumeConfig(5), opts...)
	if err != nil {
		t.Fatal(err)
	}
	ev.noSiteReplay = noReplay
	if err := ev.Run(); err != nil {
		t.Fatal(err)
	}
	st := engineState{
		loss: map[byte][][]float32{}, delay: map[byte][][]float32{}, hasRoute: map[byte][][]bool{},
		legit: map[byte][]float64{}, atk: map[byte][]float64{}, retry: map[byte][]float64{}, resp: map[byte][]float64{},
		epochStarts: map[byte][]int{}, rssac: map[byte]interface{}{},
		cityExcess: ev.cityExcess, updates: ev.Collector.Updates(),
	}
	for lb, ls := range ev.letters {
		st.loss[lb], st.delay[lb], st.hasRoute[lb] = ls.loss, ls.delay, ls.hasRoute
		st.legit[lb], st.atk[lb], st.retry[lb], st.resp[lb] = ls.legitServed, ls.attackServed, ls.retryServed, ls.responses
		for _, ep := range ls.epochs {
			st.epochStarts[lb] = append(st.epochStarts[lb], ep.Start)
		}
		st.rssac[lb] = ev.RSSACReports(lb)
	}
	return st
}

// TestSiteReplayIsAnEquivalence proves the steady-minute shortcut changes
// nothing: with it on (any worker count) and with every minute evaluated
// from scratch, each letter's per-site loss, delay and route series, its
// traffic series, its epoch sequence, the shared city-excess totals, the
// BGP update stream and the RSSAC reports are identical — floats compared
// as bits by reflect.DeepEqual — for a fault-free and a faulted run whose
// plan opens and closes degrade, burst, outage and flap windows inside both
// quiet and attacked minutes.
func TestSiteReplayIsAnEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("several engine runs")
	}
	for name, plan := range map[string]*faults.Plan{"fault-free": nil, "faulted": resumeFaultPlan()} {
		ref := runEngineState(t, true, 1, plan)
		for _, workers := range []int{1, 3} {
			got := runEngineState(t, false, workers, plan)
			if !reflect.DeepEqual(got, ref) {
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
							t.Errorf("%s, %d workers: letter %c %s differs from the from-scratch run", name, workers, lb, f.what)
						}
					}
				}
				if !reflect.DeepEqual(got.cityExcess, ref.cityExcess) {
					t.Errorf("%s, %d workers: cityExcess differs", name, workers)
				}
				if !reflect.DeepEqual(got.updates, ref.updates) {
					t.Errorf("%s, %d workers: BGP update stream differs", name, workers)
				}
			}
		}
	}
}
