package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"github.com/rootevent/anycastddos/internal/attack"
	"github.com/rootevent/anycastddos/internal/bgpsim/bgpsimtest"
	"github.com/rootevent/anycastddos/internal/faults"
	"github.com/rootevent/anycastddos/internal/topo"
)

// tinyConfig is the smallest configuration with both event windows and
// enough sites for routing churn; used for the engine-equivalence matrix.
func tinyConfig(seed int64) Config {
	cfg := DefaultConfig(seed)
	cfg.Topology = &topo.Config{Tier1s: 5, Tier2s: 40, Stubs: 400, Seed: seed}
	cfg.VPs = 150
	cfg.BotnetOrigins = 25
	return cfg
}

// runFingerprint runs one evaluator to completion and captures everything
// the engine emits: the serialized dataset hash, the BGP collector's update
// stream, RSSAC reports, route series, and the .nl collateral series.
type runFingerprint struct {
	datasetHash [32]byte
	updates     interface{}
	rssacK      interface{}
	routesK0    []float64
	nl          [][]float64
}

func fingerprint(t *testing.T, seed int64, workers int, extra ...Option) runFingerprint {
	t.Helper()
	return runFingerprintOf(t, seed, workers, false, extra...)
}

// oracleFingerprint is fingerprint with every routing epoch solved by the
// reference bgpsimtest.Compute and the table memo off.
func oracleFingerprint(t *testing.T, seed int64, workers int, extra ...Option) runFingerprint {
	t.Helper()
	return runFingerprintOf(t, seed, workers, true, extra...)
}

func runFingerprintOf(t *testing.T, seed int64, workers int, oracle bool, extra ...Option) runFingerprint {
	t.Helper()
	opts := append([]Option{WithWorkers(workers)}, extra...)
	ev, err := NewEvaluator(tinyConfig(seed), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if oracle {
		ev.routeOracle = bgpsimtest.Compute
	}
	if err := ev.Run(); err != nil {
		t.Fatal(err)
	}
	return fingerprintEv(t, ev)
}

// TestParallelEngineEquivalence is the golden-equivalence matrix of the
// parallel engine: for each seed, every worker count must reproduce the
// sequential (workers=1) run bit-for-bit — datasets, BGP update streams,
// RSSAC reports, route series, and collateral series.
func TestParallelEngineEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple full engine runs")
	}
	for _, seed := range []int64{1, 42} {
		base := fingerprint(t, seed, 1)
		for _, workers := range []int{2, 4, 8} {
			got := fingerprint(t, seed, workers)
			if got.datasetHash != base.datasetHash {
				t.Errorf("seed %d workers %d: dataset differs from sequential", seed, workers)
			}
			if !reflect.DeepEqual(got.updates, base.updates) {
				t.Errorf("seed %d workers %d: BGP update stream differs", seed, workers)
			}
			if !reflect.DeepEqual(got.rssacK, base.rssacK) {
				t.Errorf("seed %d workers %d: RSSAC reports differ", seed, workers)
			}
			if !reflect.DeepEqual(got.routesK0, base.routesK0) {
				t.Errorf("seed %d workers %d: route series differs", seed, workers)
			}
			if !reflect.DeepEqual(got.nl, base.nl) {
				t.Errorf("seed %d workers %d: .nl series differs", seed, workers)
			}
		}
	}
	// Different seeds must still diverge.
	if fingerprint(t, 1, 4).datasetHash == fingerprint(t, 42, 4).datasetHash {
		t.Error("different seeds produced identical datasets")
	}
}

// TestParallelEngineEquivalenceWithFaults extends the golden-equivalence
// guarantee to faulted runs: a heavy random fault plan must not introduce
// any worker-count dependence, and must actually change the output.
func TestParallelEngineEquivalenceWithFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple full engine runs")
	}
	plan := faults.RandomPlan(11, faults.HeavyProfile())
	withFaults := WithFaults(plan)
	base := fingerprint(t, 1, 1, withFaults)
	for _, workers := range []int{2, 4, 8} {
		got := fingerprint(t, 1, workers, withFaults)
		if got.datasetHash != base.datasetHash {
			t.Errorf("workers %d: faulted dataset differs from sequential", workers)
		}
		if !reflect.DeepEqual(got.updates, base.updates) {
			t.Errorf("workers %d: faulted BGP update stream differs", workers)
		}
		if !reflect.DeepEqual(got.rssacK, base.rssacK) {
			t.Errorf("workers %d: faulted RSSAC reports differ", workers)
		}
		if !reflect.DeepEqual(got.routesK0, base.routesK0) {
			t.Errorf("workers %d: faulted route series differs", workers)
		}
		if !reflect.DeepEqual(got.nl, base.nl) {
			t.Errorf("workers %d: faulted .nl series differs", workers)
		}
	}
	// The memoized three-pass routing path must be invisible under fault
	// injection too: the reference routing computation on every epoch,
	// memo off, reproduces the faulted run bit-for-bit at every worker
	// count.
	for _, workers := range []int{1, 4} {
		got := oracleFingerprint(t, 1, workers, withFaults)
		if got.datasetHash != base.datasetHash {
			t.Errorf("workers %d: faulted cache-off dataset differs", workers)
		}
		if !reflect.DeepEqual(got.updates, base.updates) {
			t.Errorf("workers %d: faulted cache-off BGP update stream differs", workers)
		}
		if !reflect.DeepEqual(got.rssacK, base.rssacK) {
			t.Errorf("workers %d: faulted cache-off RSSAC reports differ", workers)
		}
	}
	// The plan must have observable effect — otherwise this test proves
	// nothing about fault determinism.
	if base.datasetHash == fingerprint(t, 1, 4).datasetHash {
		t.Error("heavy fault plan left the dataset unchanged")
	}
}

// TestRoutingCacheEquivalence is the byte-identity proof for the routing
// fast path: the memoized three-pass solver must reproduce a run whose
// every epoch the reference bgpsimtest.Compute solved with the memo off —
// dataset, BGP update stream, RSSAC reports, route and collateral series —
// bit-for-bit, at every worker count.
func TestRoutingCacheEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple full engine runs")
	}
	for _, seed := range []int64{1, 42} {
		ref := oracleFingerprint(t, seed, 1)
		for _, workers := range []int{1, 4} {
			got := fingerprint(t, seed, workers)
			if got.datasetHash != ref.datasetHash {
				t.Errorf("seed %d workers %d: cached dataset differs from reference", seed, workers)
			}
			if !reflect.DeepEqual(got.updates, ref.updates) {
				t.Errorf("seed %d workers %d: cached BGP update stream differs", seed, workers)
			}
			if !reflect.DeepEqual(got.rssacK, ref.rssacK) {
				t.Errorf("seed %d workers %d: cached RSSAC reports differ", seed, workers)
			}
			if !reflect.DeepEqual(got.routesK0, ref.routesK0) {
				t.Errorf("seed %d workers %d: cached route series differs", seed, workers)
			}
			if !reflect.DeepEqual(got.nl, ref.nl) {
				t.Errorf("seed %d workers %d: cached .nl series differs", seed, workers)
			}
		}
	}
}

func TestRunContextCanceledBeforeStart(t *testing.T) {
	ev, err := NewEvaluator(tinyConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := ev.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunCancellationMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var lastMinute int
	ev, err := NewEvaluator(tinyConfig(7),
		WithWorkers(4),
		WithContext(ctx),
		WithProgress(func(p Progress) {
			if p.Stage == StageRun {
				lastMinute = p.Done
				if p.Done == 25 {
					cancel()
				}
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	err = ev.Run()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The engine checks the context at the next minute boundary, so the
	// run must stop right after the canceling callback, not at the end.
	if lastMinute > 30 {
		t.Errorf("run continued to minute %d after cancellation at 25", lastMinute)
	}
	if _, err := ev.Measure(); err == nil {
		t.Error("Measure after canceled Run should fail")
	}
}

func TestMeasureContextCancellation(t *testing.T) {
	ev, err := NewEvaluator(tinyConfig(9), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Run(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ev.MeasureContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// A fresh context still measures fine afterwards.
	if _, err := ev.MeasureContext(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestProgressReports(t *testing.T) {
	var mu sync.Mutex
	counts := map[string]int{}
	finals := map[string]Progress{}
	ev, err := NewEvaluator(tinyConfig(5), WithWorkers(3), WithProgress(func(p Progress) {
		mu.Lock()
		defer mu.Unlock()
		counts[p.Stage]++
		finals[p.Stage] = p
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Measure(); err != nil {
		t.Fatal(err)
	}
	if got := counts[StageRun]; got != ev.Cfg.Minutes {
		t.Errorf("run progress calls = %d, want %d", got, ev.Cfg.Minutes)
	}
	if f := finals[StageRun]; f.Done != f.Total || f.Total != ev.Cfg.Minutes {
		t.Errorf("final run progress = %+v", f)
	}
	if got := counts[StageMeasure]; got != ev.Cfg.VPs {
		t.Errorf("measure progress calls = %d, want %d", got, ev.Cfg.VPs)
	}
	if f := finals[StageMeasure]; f.Done != f.Total || f.Total != ev.Cfg.VPs {
		t.Errorf("final measure progress = %+v", f)
	}
}

func TestWithScheduleOption(t *testing.T) {
	june := attack.June2016Schedule()
	ev, err := NewEvaluator(tinyConfig(3), WithSchedule(june))
	if err != nil {
		t.Fatal(err)
	}
	if ev.Schedule().Name != "june2016" {
		t.Errorf("schedule = %q, want june2016", ev.Schedule().Name)
	}
}

// TestSimulatedEvents: only events that end inside the horizon count as
// simulated, whatever the schedule lists.
func TestSimulatedEvents(t *testing.T) {
	for _, tt := range []struct {
		minutes int
		want    []int
	}{
		{attack.Event1Start, nil},
		{attack.Event1End - 1, nil},
		{attack.Event1End, []int{0}},
		{1440, []int{0}},
		{attack.Event2End, []int{0, 1}},
		{2880, []int{0, 1}},
	} {
		cfg := tinyConfig(3)
		cfg.Minutes = tt.minutes
		ev, err := NewEvaluator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := ev.SimulatedEvents(); !reflect.DeepEqual(got, tt.want) {
			t.Errorf("%d minutes: SimulatedEvents = %v, want %v", tt.minutes, got, tt.want)
		}
	}
}

// TestAccessorDefensiveCopies enforces the documented sharing contract of
// the read accessors: returned slices are copies (or freshly built), so
// caller mutations cannot corrupt evaluator state.
func TestAccessorDefensiveCopies(t *testing.T) {
	ev, _ := getShared(t)

	sites := ev.LetterSites('K')
	if len(sites) == 0 {
		t.Fatal("no K sites")
	}
	sites[0] = nil
	again := ev.LetterSites('K')
	if again[0] == nil {
		t.Error("LetterSites returned a live slice; caller mutation visible")
	}

	if ev.RSSACReports('Z') != nil {
		t.Error("unknown letter should have nil reports")
	}
	reps := ev.RSSACReports('K')
	if len(reps) == 0 {
		t.Fatal("no K reports")
	}
	reps[0] = nil
	if ev.RSSACReports('K')[0] == nil {
		t.Error("RSSACReports returned a live slice; caller mutation visible")
	}
}

// TestConcurrentReaders drives every read accessor from many goroutines
// while a measurement campaign runs — the -race guarantee the engine's
// documentation makes for completed runs.
func TestConcurrentReaders(t *testing.T) {
	ev, _ := getShared(t)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := ev.MeasureContext(context.Background()); err != nil {
			t.Error(err)
		}
	}()
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, lb := range ev.Deployment.SortedLetters() {
				_ = ev.LetterSites(lb)
				_ = ev.RSSACReports(lb)
				if _, err := siteRouteSeries(ev, lb, 0); err != nil {
					t.Error(err)
				}
				_, _, _, _, _ = ev.LetterServedSeries(lb)
				vp := &ev.Population.VPs[i*7]
				_ = ev.ProbeOutcome(vp, lb, 300+i)
				_ = ev.SiteAt(lb, vp.ASN, 500)
				_, _ = ev.TraceAt(lb, vp.ASN, 500)
			}
		}(i)
	}
	wg.Wait()
}
