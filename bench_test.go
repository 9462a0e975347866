package anycastddos

// The reproduction harness: one benchmark per table and figure of the
// paper's evaluation section, plus ablation benches for the design choices
// DESIGN.md calls out. Each benchmark runs the corresponding analysis
// against a shared small-scale simulation (built once) and reports the
// headline quantity through b.ReportMetric, so `go test -bench=.` doubles
// as the experiment index.

import (
	"fmt"
	"sync"
	"testing"

	"github.com/rootevent/anycastddos/internal/analysis"
	"github.com/rootevent/anycastddos/internal/atlas"
	"github.com/rootevent/anycastddos/internal/attack"
	"github.com/rootevent/anycastddos/internal/bgpsim"
	"github.com/rootevent/anycastddos/internal/core"
	"github.com/rootevent/anycastddos/internal/defense"
	"github.com/rootevent/anycastddos/internal/netsim"
	"github.com/rootevent/anycastddos/internal/topo"
)

var (
	benchOnce sync.Once
	benchEval *core.Evaluator
	benchData *atlas.Dataset
	benchErr  error
)

// benchWorld builds the shared simulation used by the per-figure benches
// and the root-package integration tests.
func benchWorld(b testing.TB) (*core.Evaluator, *atlas.Dataset) {
	b.Helper()
	benchOnce.Do(func() {
		// Full-size topology (the catchment structure the shapes depend
		// on), reduced VP population (probing cost).
		cfg := core.DefaultConfig(1)
		cfg.VPs = 800
		var ev *core.Evaluator
		ev, benchErr = core.NewEvaluator(cfg)
		if benchErr != nil {
			return
		}
		if benchErr = ev.Run(); benchErr != nil {
			return
		}
		benchEval = ev
		benchData, benchErr = ev.Measure()
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchEval, benchData
}

// benchAnalyzer returns an Analyzer over the shared benchWorld run, built
// outside any timed region.
func benchAnalyzer(b testing.TB) *analysis.Analyzer {
	ev, d := benchWorld(b)
	return analysis.New(ev, d)
}

// BenchmarkTable2 regenerates Table 2: reported vs observed sites per
// letter.
func BenchmarkTable2(b *testing.B) {
	an := benchAnalyzer(b)
	var rows []analysis.Table2Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = an.Table2()
	}
	b.StopTimer()
	observed := 0
	for _, r := range rows {
		observed += r.SitesObserved
	}
	b.ReportMetric(float64(observed), "sites-observed")
}

// BenchmarkTable3 regenerates Table 3's event-size estimation for both
// events.
func BenchmarkTable3(b *testing.B) {
	an := benchAnalyzer(b)
	var res *analysis.Table3Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		for evIdx := 0; evIdx < 2; evIdx++ {
			res, err = an.Table3(evIdx)
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(res.Bounds.UpperQueryMqs, "upper-Mq/s")
	b.ReportMetric(res.Bounds.UpperRespGbs, "upper-resp-Gb/s")
}

// BenchmarkFigure2 sweeps the §2.2 policy model across the five cases.
func BenchmarkFigure2(b *testing.B) {
	hTotal := 0
	for i := 0; i < b.N; i++ {
		for _, a := range []float64{30, 80, 300, 700, 1500} {
			sc := core.PaperScenario(100, a, a)
			_, h, err := sc.Best()
			if err != nil {
				b.Fatal(err)
			}
			hTotal += h
		}
	}
	b.ReportMetric(float64(hTotal)/float64(b.N), "sum-best-H")
}

// BenchmarkFigure3 regenerates the per-letter reachability series.
func BenchmarkFigure3(b *testing.B) {
	an := benchAnalyzer(b)
	var minB float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := an.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		minB, _, _ = s['B'].Min()
	}
	b.ReportMetric(minB, "B-min-VPs")
}

// BenchmarkFigure4 regenerates the per-letter median RTT series.
func BenchmarkFigure4(b *testing.B) {
	an := benchAnalyzer(b)
	var kMax float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := an.Figure4()
		if err != nil {
			b.Fatal(err)
		}
		kMax, _, _ = s['K'].Max()
	}
	b.ReportMetric(kMax, "K-peak-RTT-ms")
}

// BenchmarkFigure5 regenerates the per-site swing table for E and K.
func BenchmarkFigure5(b *testing.B) {
	an := benchAnalyzer(b)
	n := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, lb := range []byte{'E', 'K'} {
			rows, err := an.Figure5(lb)
			if err != nil {
				b.Fatal(err)
			}
			n = len(rows)
		}
	}
	b.ReportMetric(float64(n), "K-sites")
}

// BenchmarkFigure6 regenerates the per-site catchment series for E and K.
func BenchmarkFigure6(b *testing.B) {
	an := benchAnalyzer(b)
	critical := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		critical = 0
		for _, lb := range []byte{'E', 'K'} {
			minis, err := an.Figure6(lb)
			if err != nil {
				b.Fatal(err)
			}
			for _, m := range minis {
				critical += len(m.CriticalBins)
			}
		}
	}
	b.ReportMetric(float64(critical), "critical-bins")
}

// BenchmarkFigure7 regenerates the stressed-K-site RTT series.
func BenchmarkFigure7(b *testing.B) {
	an := benchAnalyzer(b)
	var amsPeak float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series, err := an.Figure7('K', []string{"AMS", "NRT", "LHR", "FRA"})
		if err != nil {
			b.Fatal(err)
		}
		amsPeak, _, _ = series["K-AMS"].Max()
	}
	b.ReportMetric(amsPeak, "K-AMS-peak-RTT-ms")
}

// BenchmarkFigure8 regenerates site-flip counting across all letters.
func BenchmarkFigure8(b *testing.B) {
	an := benchAnalyzer(b)
	var total float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flips, err := an.Figure8()
		if err != nil {
			b.Fatal(err)
		}
		total = 0
		for _, s := range flips {
			for _, v := range s.Values {
				total += v
			}
		}
	}
	b.ReportMetric(total, "total-flips")
}

// BenchmarkFigure9 regenerates the BGPmon route-change series.
func BenchmarkFigure9(b *testing.B) {
	an := benchAnalyzer(b)
	var total float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series := an.Figure9()
		total = 0
		for _, s := range series {
			for _, v := range s.Values {
				total += v
			}
		}
	}
	b.ReportMetric(total, "route-changes")
}

// BenchmarkFigure10 regenerates the K-LHR/K-FRA flip-flow analysis.
func BenchmarkFigure10(b *testing.B) {
	an := benchAnalyzer(b)
	movers := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flows, err := an.Figure10('K', []string{"LHR", "FRA"}, 0)
		if err != nil {
			b.Fatal(err)
		}
		movers = 0
		for _, f := range flows {
			movers += f.Movers
		}
	}
	b.ReportMetric(float64(movers), "movers")
}

// BenchmarkFigure11 regenerates the 300-VP raster.
func BenchmarkFigure11(b *testing.B) {
	an := benchAnalyzer(b)
	rows := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := an.Figure11('K', "LHR", "FRA", "AMS", 300)
		if err != nil {
			b.Fatal(err)
		}
		rows = len(r)
	}
	b.ReportMetric(float64(rows), "raster-vps")
}

// BenchmarkFigure12 regenerates per-server reachability (K-FRA, K-NRT).
func BenchmarkFigure12(b *testing.B) {
	an := benchAnalyzer(b)
	servers := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		servers = 0
		for _, code := range []string{"FRA", "NRT"} {
			series, err := an.FigureServers('K', code)
			if err != nil {
				b.Fatal(err)
			}
			servers += len(series)
		}
	}
	b.ReportMetric(float64(servers), "servers")
}

// BenchmarkFigure13 regenerates per-server RTT medians (same pipeline,
// reported separately to mirror the paper's figure split).
func BenchmarkFigure13(b *testing.B) {
	an := benchAnalyzer(b)
	var peak float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series, err := an.FigureServers('K', "NRT")
		if err != nil {
			b.Fatal(err)
		}
		peak = 0
		for _, s := range series {
			if m, _, err := s.RTT.Max(); err == nil && m > peak {
				peak = m
			}
		}
	}
	b.ReportMetric(peak, "NRT-peak-server-RTT-ms")
}

// BenchmarkFigure14 regenerates the D-Root collateral-damage scan.
func BenchmarkFigure14(b *testing.B) {
	an := benchAnalyzer(b)
	hits := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sites, err := an.Figure14('D', 0.10)
		if err != nil {
			b.Fatal(err)
		}
		hits = len(sites)
	}
	b.ReportMetric(float64(hits), "affected-D-sites")
}

// BenchmarkFigure15 regenerates the .nl collateral series.
func BenchmarkFigure15(b *testing.B) {
	an := benchAnalyzer(b)
	var min float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series := an.Figure15()
		min = 1
		for _, s := range series {
			if m, _, err := s.Min(); err == nil && m < min {
				min = m
			}
		}
	}
	b.ReportMetric(min, "nl-min-service")
}

// BenchmarkSiteCorrelation regenerates the §3.2.1 R² analysis.
func BenchmarkSiteCorrelation(b *testing.B) {
	an := benchAnalyzer(b)
	var r2 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := an.SiteCorrelation()
		if err != nil {
			b.Fatal(err)
		}
		r2 = res.Fit.R2
	}
	b.ReportMetric(r2, "R2")
}

// BenchmarkLetterFlips regenerates the §3.2.2 L-Root failover analysis.
func BenchmarkLetterFlips(b *testing.B) {
	an := benchAnalyzer(b)
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := an.LetterFlips('L')
		if err != nil {
			b.Fatal(err)
		}
		ratio = res.Event2Ratio
	}
	b.ReportMetric(ratio, "L-event2-ratio")
}

// --- Ablation benches for design choices called out in DESIGN.md ---

// BenchmarkAblationRouting measures a full 13-letter catchment
// recomputation on the default-size topology: the cost paid on every
// withdrawal event.
func BenchmarkAblationRouting(b *testing.B) {
	g, err := topo.Generate(topo.DefaultConfig(3))
	if err != nil {
		b.Fatal(err)
	}
	stubs := g.StubASNs()
	origins := make([]bgpsim.Origin, 30)
	for i := range origins {
		origins[i] = bgpsim.Origin{Site: i, Host: stubs[(i*53)%len(stubs)]}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bgpsim.Compute(g, origins, nil)
	}
}

// BenchmarkAblationQueueModel measures the per-minute site evaluation that
// dominates the simulation inner loop.
func BenchmarkAblationQueueModel(b *testing.B) {
	cfg := netsim.DefaultConfig()
	for i := 0; i < b.N; i++ {
		if _, err := netsim.Evaluate(350_000, netsim.Load{LegitQPS: 3000, AttackQPS: float64(i % 5_000_000)}, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationFullRun measures an end-to-end small simulation +
// measurement campaign — the cost of one reproduction at test scale.
func BenchmarkAblationFullRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig(int64(i + 1))
		cfg.Topology = &topo.Config{Tier1s: 5, Tier2s: 40, Stubs: 400, Seed: int64(i + 1)}
		cfg.VPs = 150
		ev, err := core.NewEvaluator(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := ev.Run(); err != nil {
			b.Fatal(err)
		}
		if _, err := ev.Measure(); err != nil {
			b.Fatal(err)
		}
	}
}

// flapSequence builds the deterministic announcement-vector churn of a
// flap-heavy attack window: one to three uplinks toggle per step, with a
// periodic revert to the all-active vector (the shape a withdraw/cooldown
// cycle produces, and the cache-hit shape in the engine).
func flapSequence(nOrigins, steps int) [][]bool {
	seq := make([][]bool, steps)
	act := make([]bool, nOrigins)
	for i := range act {
		act[i] = true
	}
	for s := 0; s < steps; s++ {
		if s%17 == 16 {
			for i := range act {
				act[i] = true
			}
		} else {
			for k := 0; k <= s%3; k++ {
				i := (s*7 + k*13) % nOrigins
				act[i] = !act[i]
			}
		}
		seq[s] = append([]bool(nil), act...)
	}
	return seq
}

// BenchmarkComputeFullVsIncremental is the headline routing bench: the same
// flap-heavy Nov 30 announcement churn through (a) the reference
// from-scratch Compute, (b) the warm-started incremental Computer, and
// (c) the Computer behind the engine's announcement-vector memoization.
// All three produce byte-identical tables (proved by the equivalence
// tests); the ratio of their ns/op and allocs/op is the result tracked in
// BENCH_4.json.
func BenchmarkComputeFullVsIncremental(b *testing.B) {
	g, err := topo.Generate(topo.DefaultConfig(3))
	if err != nil {
		b.Fatal(err)
	}
	stubs := g.StubASNs()
	var origins []bgpsim.Origin
	for s := 0; s < 20; s++ {
		for u := 0; u <= s%3; u++ {
			origins = append(origins, bgpsim.Origin{
				Site: s, Host: stubs[(s*101+u*37)%len(stubs)], Local: s%5 == 4,
			})
		}
	}
	seq := flapSequence(len(origins), 64)

	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bgpsim.Compute(g, origins, seq[i%len(seq)])
		}
	})
	b.Run("incremental", func(b *testing.B) {
		c := bgpsim.NewComputer(g)
		c.Compute(origins, seq[0]) // warm the scratch
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Compute(origins, seq[i%len(seq)])
		}
	})
	b.Run("cached", func(b *testing.B) {
		// The engine's memoization on top of the Computer: a flap cycle
		// returning to a seen vector is a map hit, nothing is recomputed.
		c := bgpsim.NewComputer(g)
		cache := make(map[string]*bgpsim.Table)
		key := make([]byte, 0, (len(origins)+7)/8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			act := seq[i%len(seq)]
			key = key[:0]
			var bits byte
			for j, a := range act {
				if a {
					bits |= 1 << (uint(j) & 7)
				}
				if j&7 == 7 {
					key = append(key, bits)
					bits = 0
				}
			}
			if len(act)&7 != 0 {
				key = append(key, bits)
			}
			if _, ok := cache[string(key)]; !ok {
				cache[string(key)] = c.Compute(origins, act)
			}
		}
	})
}

// BenchmarkProbeOutcome measures the per-probe hot path against the shared
// completed simulation: dense letter/epoch/city lookups and the scalar
// server view should keep it allocation-free.
func BenchmarkProbeOutcome(b *testing.B) {
	ev, _ := benchWorld(b)
	letters := ev.Deployment.SortedLetters()
	vps := ev.Population.VPs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vp := &vps[i%len(vps)]
		lb := letters[i%len(letters)]
		_ = ev.ProbeOutcome(vp, lb, (i*37)%ev.Cfg.Minutes)
	}
}

// BenchmarkMeasure is the Atlas campaign alone at rootbench's replay_nov30
// size (1000 VPs × 1440 minutes): probe fan-out, identity cleaning and
// dataset recording over one completed simulation, at one worker and at
// two. Measure only reads the evaluator, so every iteration repeats the
// same ≈ 4.2 M probes; ns/probe is the whole campaign's time — walk kernel,
// cleaning, recording and Seal — per probe.
func BenchmarkMeasure(b *testing.B) {
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := core.DefaultConfig(7)
			cfg.VPs, cfg.Minutes = 1000, 1440
			ev, err := core.NewEvaluator(cfg, core.WithWorkers(workers))
			if err != nil {
				b.Fatal(err)
			}
			if err := ev.Run(); err != nil {
				b.Fatal(err)
			}
			// The campaign's probes: every VP with current firmware walks
			// every letter from its phase to the horizon.
			sc, probes := atlas.DefaultScheduleConfig(), 0
			for _, vp := range ev.Population.VPs {
				if vp.Firmware < atlas.MinFirmware {
					continue
				}
				for _, l := range sc.Letters {
					interval := sc.IntervalMin
					if l == 'A' {
						interval = sc.AIntervalMin
					}
					probes += (cfg.Minutes - vp.Phase%interval + interval - 1) / interval
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ev.Measure(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(probes), "ns/probe")
		})
	}
}

// --- Parallel-engine benches: the same work at each worker count ---
//
// The engine guarantees byte-identical output for every worker count, so
// these benches isolate pure speedup: letters shard across workers during
// Run, vantage points during Measure. Expect near-linear Measure scaling
// and Run scaling bounded by the 13-way letter parallelism (minus the
// sequential per-minute barrier) on multi-core hosts; on a single core all
// counts degenerate to the sequential cost plus scheduling noise.

// BenchmarkParallelSmallWorkers runs simulation + measurement at test scale
// across worker counts — quick enough for routine regression tracking.
func BenchmarkParallelSmallWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg := core.DefaultConfig(1)
				cfg.Topology = &topo.Config{Tier1s: 5, Tier2s: 40, Stubs: 400, Seed: 1}
				cfg.VPs = 150
				ev, err := core.NewEvaluator(cfg, core.WithWorkers(workers))
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := ev.Run(); err != nil {
					b.Fatal(err)
				}
				if _, err := ev.Measure(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNov30EventWorkers is the headline scaling bench: the full first
// event day on the default-size topology with the paper's ~9000 active
// vantage points. Evaluators are single-use, so construction is excluded
// from the timed region.
//
//	go test -bench=Nov30EventWorkers -benchtime=1x
func BenchmarkNov30EventWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg := core.DefaultConfig(1)
				cfg.Minutes = 24 * 60 // Nov 30: event 1 and its aftermath
				cfg.VPs = 9000
				ev, err := core.NewEvaluator(cfg, core.WithWorkers(workers))
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := ev.Run(); err != nil {
					b.Fatal(err)
				}
				if _, err := ev.Measure(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationUniqueIPs measures the analytic unique-source estimator
// against event-scale query counts.
func BenchmarkAblationUniqueIPs(b *testing.B) {
	mix := attack.DefaultSourceMix
	var v float64
	for i := 0; i < b.N; i++ {
		v = mix.ExpectedUniqueIPs(float64(i) * 1e6)
	}
	_ = v
}

// BenchmarkDNSMON regenerates the availability dashboard.
func BenchmarkDNSMON(b *testing.B) {
	an := benchAnalyzer(b)
	var bMin float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := an.DNSMON()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Letter == 'B' {
				bMin = r.WorstBinPct
			}
		}
	}
	b.ReportMetric(bMin, "B-worst-bin-pct")
}

// BenchmarkEventDetection regenerates the blind change-point detection of
// the two event windows.
func BenchmarkEventDetection(b *testing.B) {
	ev, d := benchWorld(b)
	an := analysis.New(ev, d)
	var matched int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		windows, err := an.DetectEvents(0.25, 3)
		if err != nil {
			b.Fatal(err)
		}
		matched, _, _ = analysis.MatchesKnownEvents(windows, ev.Schedule())
	}
	b.ReportMetric(float64(matched), "events-matched")
}

// BenchmarkUserImpact regenerates the end-user extension experiment: a
// resolver population with caching and cross-letter failover riding out the
// event (§2.3's "no end-user visible errors" claim).
func BenchmarkUserImpact(b *testing.B) {
	an := benchAnalyzer(b)
	cfg := analysis.DefaultUserImpactConfig(1)
	cfg.Resolvers = 40
	cfg.QueriesPerBin = 4
	var worstFail float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := an.UserImpact(cfg)
		if err != nil {
			b.Fatal(err)
		}
		worstFail, _, _ = res.FailFrac.Max()
	}
	b.ReportMetric(worstFail, "worst-fail-frac")
}

// BenchmarkAblationDefensePolicies compares the three defense controllers
// (§5 future work) on the standard case-3 scenario.
func BenchmarkAblationDefensePolicies(b *testing.B) {
	build := func() (*defense.Scenario, error) {
		g, err := topo.Generate(topo.Config{Tier1s: 5, Tier2s: 40, Stubs: 500, Seed: 17})
		if err != nil {
			return nil, err
		}
		stubs := g.StubASNs()
		origins := []bgpsim.Origin{
			{Site: 0, Host: stubs[10]},
			{Site: 1, Host: stubs[200]},
			{Site: 2, Host: stubs[400]},
		}
		table := bgpsim.Compute(g, origins, nil)
		legit := map[topo.ASN]float64{}
		for _, asn := range stubs {
			legit[asn] = 15
		}
		attackSrc := map[topo.ASN]float64{}
		var inSmall []topo.ASN
		for _, asn := range stubs {
			if s := table.SiteOf(asn); s == 0 || s == 1 {
				inSmall = append(inSmall, asn)
			}
		}
		for _, asn := range inSmall {
			attackSrc[asn] = 600_000 / float64(len(inSmall))
		}
		return &defense.Scenario{
			Graph: g, Origins: origins, Capacity: []float64{100_000, 100_000, 1_000_000},
			LegitPerAS: legit, AttackPerAS: attackSrc,
			Minutes: 120, EventStart: 20, EventEnd: 100,
			Netsim: netsim.DefaultConfig(),
		}, nil
	}
	var adaptiveFrac float64
	for i := 0; i < b.N; i++ {
		for _, mk := range []func() defense.Controller{
			func() defense.Controller { return defense.StaticAbsorb{} },
			func() defense.Controller { return &defense.ThresholdWithdraw{Trigger: 2, Hold: 3, Cooldown: 30} },
			func() defense.Controller { return &defense.Adaptive{Interval: 5, MinGain: 0.02} },
		} {
			sc, err := build()
			if err != nil {
				b.Fatal(err)
			}
			out, err := defense.Evaluate(sc, mk())
			if err != nil {
				b.Fatal(err)
			}
			if out.Controller == "adaptive-feedback" {
				adaptiveFrac = out.ServedLegitFrac
			}
		}
	}
	b.ReportMetric(adaptiveFrac, "adaptive-served-frac")
}
