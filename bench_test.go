package anycastddos

// Benchmarks that cmd/rootbench does not run: the Atlas campaign alone at
// one and two workers (the ns/probe figure DESIGN.md §9 cites), one grid
// scenario's user-impact experiment, and the engine at several worker
// counts (`make bench-workers`). Every table,
// figure and per-layer cost is measured end to end by cmd/rootbench; see
// bench/README.md.

import (
	"fmt"
	"os"
	"testing"

	"github.com/rootevent/anycastddos/internal/analysis"
	"github.com/rootevent/anycastddos/internal/atlas"
	"github.com/rootevent/anycastddos/internal/campaign"
	"github.com/rootevent/anycastddos/internal/core"
	"github.com/rootevent/anycastddos/internal/topo"
)

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

// BenchmarkUserImpact is the user-impact experiment every campaign cell
// runs through Outcome: cell 0 of bench/campaign_grid.json at seed 7, with
// DefaultOutcomeConfig's population (60 resolvers, 8 queries per bin, 150
// names; 23 040 user queries over the grid's 480 minutes). The simulation
// runs once; each iteration repeats only UserImpact, as a campaign worker
// does for every cell it runs.
func BenchmarkUserImpact(b *testing.B) {
	data, err := os.ReadFile("bench/campaign_grid.json")
	if err != nil {
		b.Fatal(err)
	}
	spec, err := campaign.ParseSpec(data)
	if err != nil {
		b.Fatal(err)
	}
	spec.Axes.Seeds = []int64{7}
	sc := spec.Expand()[0]
	cfg, opts, err := sc.EngineConfig()
	if err != nil {
		b.Fatal(err)
	}
	ev, err := core.NewEvaluator(cfg, opts...)
	if err != nil {
		b.Fatal(err)
	}
	if err := ev.Run(); err != nil {
		b.Fatal(err)
	}
	an := analysis.New(ev, nil)
	ucfg := *analysis.DefaultOutcomeConfig(sc.Seed).User
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := an.UserImpact(ucfg); err != nil {
			b.Fatal(err)
		}
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
