package anycastddos

// End-to-end integration tests: one full (small-scale) reproduction run
// through topology, routing, traffic, measurement, and every analysis —
// asserting the paper's headline shapes in a single place. The tests that
// need the full run share one sharedWorld simulation, built once.

import (
	"bytes"
	"crypto/sha256"
	"runtime"
	"sync"
	"testing"

	"github.com/rootevent/anycastddos/internal/analysis"
	"github.com/rootevent/anycastddos/internal/atlas"
	"github.com/rootevent/anycastddos/internal/attack"
	"github.com/rootevent/anycastddos/internal/core"
	"github.com/rootevent/anycastddos/internal/faults"
	"github.com/rootevent/anycastddos/internal/topo"
)

var (
	sharedOnce sync.Once
	sharedEval *core.Evaluator
	sharedData *atlas.Dataset
	sharedErr  error
)

// sharedWorld builds, once per test binary, the simulation the full-run
// tests read: the default-size topology (the catchment structure the
// headline shapes depend on) with a reduced VP population (probing cost).
func sharedWorld(t testing.TB) (*core.Evaluator, *atlas.Dataset) {
	t.Helper()
	sharedOnce.Do(func() {
		cfg := core.DefaultConfig(1)
		cfg.VPs = 800
		var ev *core.Evaluator
		ev, sharedErr = core.NewEvaluator(cfg)
		if sharedErr != nil {
			return
		}
		if sharedErr = ev.Run(); sharedErr != nil {
			return
		}
		sharedEval = ev
		sharedData, sharedErr = ev.Measure()
	})
	if sharedErr != nil {
		t.Fatal(sharedErr)
	}
	return sharedEval, sharedData
}

func TestEndToEndHeadlines(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	ev, d := sharedWorld(t)

	t.Run("Table2", func(t *testing.T) {
		rows := analysis.New(ev, d).Table2()
		if len(rows) != 13 {
			t.Fatalf("letters = %d", len(rows))
		}
		for _, r := range rows {
			if r.SitesObserved == 0 {
				t.Errorf("%c: no sites observed", r.Letter)
			}
		}
	})

	t.Run("Table3Bounds", func(t *testing.T) {
		res, err := analysis.New(ev, d).Table3(0)
		if err != nil {
			t.Fatal(err)
		}
		b := res.Bounds
		if !(b.LowerQueryMqs <= b.ScaledQueryMqs && b.ScaledQueryMqs <= b.UpperQueryMqs*1.001) {
			t.Errorf("bounds out of order: %v / %v / %v", b.LowerQueryMqs, b.ScaledQueryMqs, b.UpperQueryMqs)
		}
		if b.UpperQueryMqs < 5 {
			t.Errorf("upper bound %v Mq/s implausibly small for a 5 Mq/s x 10-letter flood", b.UpperQueryMqs)
		}
	})

	t.Run("WhoSuffers", func(t *testing.T) {
		// The unicast and two-site letters retain the smallest fraction
		// of their VPs; the unattacked letters the largest.
		retained := map[byte]float64{}
		for _, lb := range ev.Deployment.SortedLetters() {
			if lb == 'A' {
				continue
			}
			s, err := d.SuccessSeries(lb)
			if err != nil {
				t.Fatal(err)
			}
			min, _, _ := s.Min()
			retained[lb] = min / s.Median()
		}
		for _, few := range []byte{'B', 'H'} {
			for _, many := range []byte{'D', 'L', 'M', 'J'} {
				if retained[few] >= retained[many] {
					t.Errorf("%c (few sites) retained %v >= %c %v", few, retained[few], many, retained[many])
				}
			}
		}
	})

	t.Run("AbsorberRTT", func(t *testing.T) {
		series, err := analysis.New(ev, d).Figure7('K', []string{"AMS"})
		if err != nil {
			t.Fatal(err)
		}
		ams := series["K-AMS"]
		peak, _, _ := ams.Max()
		if peak < 500 || peak > 2500 {
			t.Errorf("K-AMS peak RTT %v ms, want the paper's 1-2 s band", peak)
		}
	})

	t.Run("FlipsToAMS", func(t *testing.T) {
		// Aggregate K-LHR and K-FRA movers across both events; K-AMS
		// must be the top destination (Figure 10's 70-80% at full
		// scale; at test scale we assert dominance, not the exact
		// fraction).
		dest := map[string]float64{}
		total := 0
		for evIdx := 0; evIdx < 2; evIdx++ {
			flows, err := analysis.New(ev, d).Figure10('K', []string{"LHR", "FRA"}, evIdx)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range flows {
				for site, frac := range f.Dest {
					dest[site] += frac * float64(f.Movers)
				}
				total += f.Movers
			}
		}
		if total < 30 {
			t.Skipf("only %d movers at this scale", total)
		}
		top, topN := "", 0.0
		for site, n := range dest {
			if n > topN {
				top, topN = site, n
			}
		}
		if top != "K-AMS" {
			t.Errorf("top mover destination = %s (%.0f of %d); want K-AMS", top, topN, total)
		}
	})

	t.Run("EventDetection", func(t *testing.T) {
		windows, err := analysis.New(ev, d).DetectEvents(0.25, 3)
		if err != nil {
			t.Fatal(err)
		}
		matched, _, missed := analysis.MatchesKnownEvents(windows, ev.Schedule())
		if matched != 2 || missed != 0 {
			t.Errorf("detector: matched %d missed %d (%+v)", matched, missed, windows)
		}
	})

	t.Run("DatasetRoundTrip", func(t *testing.T) {
		var buf bytes.Buffer
		if err := d.Save(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := atlas.LoadDataset(&buf)
		if err != nil {
			t.Fatal(err)
		}
		s1, _ := d.SuccessSeries('K')
		s2, _ := got.SuccessSeries('K')
		for i := range s1.Values {
			if s1.Values[i] != s2.Values[i] {
				t.Fatalf("round-tripped dataset differs at bin %d", i)
			}
		}
	})

	t.Run("EndUsersShielded", func(t *testing.T) {
		cfg := analysis.DefaultUserImpactConfig(2)
		cfg.Resolvers = 40
		cfg.QueriesPerBin = 4
		res, err := analysis.New(ev, d).UserImpact(cfg)
		if err != nil {
			t.Fatal(err)
		}
		worst, _, _ := res.FailFrac.Max()
		if worst > 0.08 {
			t.Errorf("worst end-user failure fraction %v; caching+failover should shield users", worst)
		}
	})

	t.Run("CollateralNL", func(t *testing.T) {
		for _, s := range analysis.New(ev, d).Figure15() {
			min, _, _ := s.Min()
			if min > 0.5 {
				t.Errorf(".nl %s never collapsed (min %v)", s.Name, min)
			}
		}
	})

	t.Run("EventWindowsExact", func(t *testing.T) {
		evs := attack.Events()
		if evs[0].StartMinute != 410 || evs[0].EndMinute != 570 ||
			evs[1].StartMinute != 1750 || evs[1].EndMinute != 1810 {
			t.Error("event windows drifted from the paper's schedule")
		}
	})
}

// TestFigure4AllocationCeiling holds the reduction the columnar dataset
// store bought for Figure 4. The pre-columnar row store cost 41 065
// mallocs and 71 856 738 B per Figure4 call on this world; the ceiling is
// that baseline divided by five: 41 065 / 5 = 8 213 mallocs and
// 71 856 738 / 5 = 14 371 347 B for the first call on a fresh Analyzer,
// which computes every letter's median-RTT series. A second call reads
// the Analyzer's per-letter memo and pays only for the copies it returns,
// so it must cost under a fifth of the first call's bytes as well.
func TestFigure4AllocationCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	const maxMallocs, maxBytes = 41_065 / 5, 71_856_738 / 5
	ev, d := sharedWorld(t)
	an := analysis.New(ev, d)
	figure4 := func() (mallocs, allocated uint64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := an.Figure4(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	coldMallocs, coldBytes := figure4()
	if coldMallocs > maxMallocs || coldBytes > maxBytes {
		t.Errorf("Figure4 cost %d mallocs, %d B; ceiling %d mallocs, %d B", coldMallocs, coldBytes, maxMallocs, maxBytes)
	}
	warmMallocs, warmBytes := figure4()
	if warmBytes*5 > coldBytes {
		t.Errorf("repeated Figure4 cost %d B, first call %d B: the per-letter median-RTT memo is not reused", warmBytes, coldBytes)
	}
	t.Logf("first call %d mallocs, %d B; repeat %d mallocs, %d B", coldMallocs, coldBytes, warmMallocs, warmBytes)
}

func TestDeterministicReproduction(t *testing.T) {
	if testing.Short() {
		t.Skip("two full pipeline runs")
	}
	// Two evaluators with the same seed must agree bit-for-bit on the
	// measurement outcome; a different seed must not.
	build := func(seed int64) *atlas.Dataset {
		t.Helper()
		cfg := coreSmallConfig(seed)
		ev, err := newEvaluator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := ev.Run(); err != nil {
			t.Fatal(err)
		}
		d, err := ev.Measure()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	d1 := build(42)
	d2 := build(42)
	d3 := build(43)
	var b1, b2, b3 bytes.Buffer
	if err := d1.Save(&b1); err != nil {
		t.Fatal(err)
	}
	if err := d2.Save(&b2); err != nil {
		t.Fatal(err)
	}
	if err := d3.Save(&b3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("same seed produced different datasets")
	}
	if bytes.Equal(b1.Bytes(), b3.Bytes()) {
		t.Error("different seeds produced identical datasets")
	}
}

// coreSmallConfig builds a fast full-pipeline configuration.
func coreSmallConfig(seed int64) core.Config {
	cfg := core.DefaultConfig(seed)
	cfg.Topology = &topo.Config{Tier1s: 5, Tier2s: 40, Stubs: 400, Seed: seed}
	cfg.VPs = 150
	cfg.BotnetOrigins = 25
	return cfg
}

// newEvaluator wraps core.NewEvaluator for the tests above.
func newEvaluator(cfg core.Config) (*core.Evaluator, error) {
	return core.NewEvaluator(cfg)
}

// TestFaultSoak is the fault-injection soak: random fault plans must never
// panic the engine, every faulted run must still produce a measurable
// dataset, distinct seeds must give distinct datasets, and a faulted run
// must not depend on the worker count. heavy is `make soak`'s contract;
// raise its seed count or horizon to soak longer.
func TestFaultSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline runs under fault injection")
	}
	t.Run("heavy", func(t *testing.T) { faultSoak(t, faults.HeavyProfile(), 8, 1440, 2) })
	t.Run("light", func(t *testing.T) { faultSoak(t, faults.LightProfile(), 2, 720, 0) })
}

// faultSoak runs seeds 1..seeds at 4 workers, replays the first equiv of
// them at 1 worker, and requires every dataset hash to be distinct.
func faultSoak(t *testing.T, profile faults.Profile, seeds, minutes, equiv int) {
	run := func(seed int64, workers int) [32]byte {
		cfg := coreSmallConfig(seed)
		cfg.Minutes = minutes
		ev, err := core.NewEvaluator(cfg, core.WithWorkers(workers), core.WithFaults(faults.RandomPlan(seed, profile)))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := ev.Run(); err != nil {
			t.Fatalf("seed %d: faulted run failed: %v", seed, err)
		}
		d, err := ev.Measure()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var buf bytes.Buffer
		if err := d.Save(&buf); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		return sha256.Sum256(buf.Bytes())
	}
	seen := map[[32]byte]int64{}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		hash := run(seed, 4)
		if prev, dup := seen[hash]; dup {
			t.Errorf("seeds %d and %d give the same dataset %x", prev, seed, hash[:4])
		}
		seen[hash] = seed
		if seed <= int64(equiv) {
			if seq := run(seed, 1); seq != hash {
				t.Errorf("seed %d: 4 workers give dataset %x, 1 worker %x", seed, hash[:4], seq[:4])
			}
		}
	}
}
