package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/rootevent/anycastddos/internal/analysis"
	"github.com/rootevent/anycastddos/internal/anycast"
	"github.com/rootevent/anycastddos/internal/atlas"
	"github.com/rootevent/anycastddos/internal/atomicio"
	"github.com/rootevent/anycastddos/internal/bgpsim"
	"github.com/rootevent/anycastddos/internal/checkpoint"
	"github.com/rootevent/anycastddos/internal/core"
	"github.com/rootevent/anycastddos/internal/faults"
	"github.com/rootevent/anycastddos/internal/ledger"
	"github.com/rootevent/anycastddos/internal/netsim"
	"github.com/rootevent/anycastddos/internal/stats"
	"github.com/rootevent/anycastddos/internal/topo"
)

// replayLayers is what the traced units of a replay workload hand to the
// per-layer report.
type replayLayers struct {
	minuteUs  []float64 // per-simulated-minute durations from WithProgress
	last      *replayed // a traced unit's evaluator and dataset, for the isolated loops
	runPlainS float64   // replay_ckpt: Run without checkpointing
}

// constWorld answers every probe identically, so atlas.RunContext over it
// costs the store's recording and nothing else.
type constWorld struct{ out atlas.Outcome }

func (w constWorld) ProbeOutcome(*atlas.VP, byte, int) atlas.Outcome { return w.out }

// report produces the per-layer metrics of a replay workload. Each comes
// from timing calls into the layer's exported functions, on the workload's
// own configuration; plan is nil for the fault-free replay.
func (l *replayLayers) report(p params, r *result, tr *tracer, cfg core.Config, plan *faults.Plan, st *unitStats) error {
	units := float64(tr.unitCount())
	ev, d := l.last.ev, l.last.d

	// Set-up layers, in NewEvaluator's own order and with its seeds.
	var g *topo.Graph
	s, err := tr.timed("topo.generate", func() (err error) {
		g, err = topo.Generate(topo.DefaultConfig(cfg.Seed))
		return err
	})
	if err != nil {
		return err
	}
	r.set("topo.generate_ms", s*1e3, "ms")
	if s, err = tr.timed("anycast.place", func() error {
		dep, err := anycast.RootDeployment(cfg.Seed)
		if err != nil {
			return err
		}
		return dep.Place(g, cfg.Seed+1)
	}); err != nil {
		return err
	}
	r.set("anycast.place_ms", s*1e3, "ms")
	if s, err = tr.timed("atlas.population", func() error {
		_, err := atlas.NewPopulation(g, atlas.PopulationConfig{N: cfg.VPs, Seed: cfg.Seed + 2, OldFirmwareFrac: 0.03, HijackedFrac: 0.008})
		return err
	}); err != nil {
		return err
	}
	r.set("atlas.population_ms", s*1e3, "ms")
	if plan != nil {
		shape := faults.Shape{Minutes: cfg.Minutes, Sites: map[byte]int{}}
		for _, lt := range ev.Deployment.Letters {
			shape.Sites[lt.Letter] = len(lt.Sites)
		}
		if s, err = tr.timed("faults.compile", func() error {
			_, err := faults.Compile(plan, shape)
			return err
		}); err != nil {
			return err
		}
		r.set("faults.compile_ms", s*1e3, "ms")
	}

	// The engine, once more in isolation: allocation counts per stage, the
	// dataset's heap footprint, and Measure at two workers against one.
	withWorkers := func(n int) []core.Option {
		opts := []core.Option{core.WithWorkers(n)}
		if plan != nil {
			opts = append(opts, core.WithFaults(plan))
		}
		return opts
	}
	var iso *core.Evaluator
	if s, err = tr.timed("core.new_evaluator", func() (err error) {
		iso, err = core.NewEvaluator(cfg, withWorkers(1)...)
		return err
	}); err != nil {
		return err
	}
	r.set("core.new_evaluator_ms", s*1e3, "ms")
	runtime.GC()
	before := readMem()
	if err := iso.Run(); err != nil {
		return err
	}
	r.set("core.mallocs_run", float64(memSince(before).Mallocs), "count")
	runtime.GC()
	before = readMem()
	var isoD *atlas.Dataset
	w1, err := tr.timed("core.measure_w1", func() (err error) {
		isoD, err = iso.Measure()
		return err
	})
	if err != nil {
		return err
	}
	r.set("core.mallocs_measure", float64(memSince(before).Mallocs), "count")
	runtime.GC()
	r.set("atlas.heap_mib", (float64(readMem().HeapAlloc)-float64(before.HeapAlloc))/(1<<20), "MiB")
	before = readMem()
	if _, err := tr.timed("analysis.all", func() error { return renderFigures(analysis.New(iso, isoD), iso) }); err != nil {
		return err
	}
	r.set("analysis.mallocs", float64(memSince(before).Mallocs), "count")
	iso2, err := core.NewEvaluator(cfg, withWorkers(2)...)
	if err == nil {
		err = iso2.Run()
	}
	if err != nil {
		return err
	}
	w2, err := tr.timed("core.measure_w2", func() error {
		_, err := iso2.Measure()
		return err
	})
	if err != nil {
		return err
	}
	r.set("core.measure_speedup_w2", w1/w2, "ratio")

	runS, measureS := tr.meanSeconds("core.run"), tr.meanSeconds("core.measure")
	r.set("core.run_s", runS, "s")
	r.set("core.run_plain_s", runS, "s")
	if l.runPlainS > 0 {
		r.set("core.run_plain_s", l.runPlainS, "s")
		r.set("core.resume_s", tr.meanSeconds("core.resume"), "s")
	}
	r.set("core.measure_s", measureS, "s")
	r.set("core.run_minute_p50_us", stats.Median(l.minuteUs), "us")
	r.Samples["core.run_minute_p50_us"] = len(l.minuteUs)
	r.set("core.gc_cycles", float64(st.mem.GCs), "count")
	r.set("core.gc_pause_ms", st.mem.PauseMs, "ms")

	n := 2_000_000
	if p.Smoke {
		n = 20_000
	}
	letters, vps := ev.Deployment.SortedLetters(), ev.Population.VPs
	s, _ = tr.timed("core.probe_outcome", func() error {
		for i := 0; i < n; i++ {
			_ = ev.ProbeOutcome(&vps[i%len(vps)], letters[i%len(letters)], (i*37)%cfg.Minutes)
		}
		return nil
	})
	r.set("core.probe_outcome_ns", s*1e9/float64(n), "ns")

	if err := routingLayers(p, r, tr, ev.Graph); err != nil {
		return err
	}

	// The store: recording alone (a constant world over the same population
	// and schedule), then archive and reload.
	sc := atlas.DefaultScheduleConfig()
	sc.Minutes, sc.RawLetters, sc.Workers = cfg.Minutes, cfg.RawLetters, 1
	world := constWorld{atlas.Outcome{Site: 0, Server: 1, RTTms: 30, ChaosTXT: "ns1.lhr.k.ripe.net"}}
	if s, err = tr.timed("atlas.record", func() error {
		_, err := atlas.RunContext(context.Background(), ev.Population, world, sc)
		return err
	}); err != nil {
		return err
	}
	r.set("atlas.record_s", s, "s")
	r.set("atlas.cells", float64(l.last.cells), "count")
	r.set("atlas.cells_per_s", float64(l.last.cells)/measureS, "1/s")
	r.set("atlas.save_s", tr.meanSeconds("atlas.save"), "s")
	var archive bytes.Buffer
	if err := d.Save(&archive); err != nil {
		return err
	}
	r.set("atlas.save_bytes", float64(archive.Len()), "B")
	if s, err = tr.timed("atlas.load", func() error {
		_, err := atlas.LoadDataset(bytes.NewReader(archive.Bytes()))
		return err
	}); err != nil {
		return err
	}
	r.set("atlas.load_s", s, "s")

	// Analysis and report, from the traced units' spans.
	r.set("analysis.total_s", tr.sumSecondsUnder("analysis.")/units, "s")
	r.set("report.render_ms", tr.sumSecondsUnder("report.")/units*1e3, "ms")
	for _, name := range []string{"table2", "fig3", "fig4", "fig5_6", "fig7", "fig8", "fig10_11", "servers", "fig14", "detect_events"} {
		r.set("analysis."+name+"_ms", tr.meanSeconds("analysis."+name)*1e3, "ms")
	}
	return nil
}

// renderFigures computes and renders every figure once, untraced.
func renderFigures(an *analysis.Analyzer, ev *core.Evaluator) error {
	for _, f := range figures {
		render, err := f.compute(an, ev)
		if err != nil {
			return err
		}
		if err := render(io.Discard); err != nil {
			return err
		}
	}
	return nil
}

// flapSequence is bench_test.go's announcement churn: a few origins flip
// each step and everything returns every 17th.
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

// routingLayers times route computation and the queue model on the
// workload's own topology.
func routingLayers(p params, r *result, tr *tracer, g *topo.Graph) error {
	stubs := g.StubASNs()
	var origins []bgpsim.Origin
	for s := 0; s < 20; s++ {
		for u := 0; u <= s%3; u++ {
			origins = append(origins, bgpsim.Origin{Site: s, Host: stubs[(s*101+u*37)%len(stubs)], Local: s%5 == 4})
		}
	}
	seq := flapSequence(len(origins), 64)
	reps := 4
	if p.Smoke {
		reps = 1
	}
	s, _ := tr.timed("bgpsim.compute_full", func() error {
		for i := 0; i < reps*len(seq); i++ {
			bgpsim.Compute(g, origins, seq[i%len(seq)])
		}
		return nil
	})
	r.set("bgpsim.compute_full_us", s*1e6/float64(reps*len(seq)), "us")
	c := bgpsim.NewComputer(g)
	c.Compute(origins, seq[0])
	s, _ = tr.timed("bgpsim.compute_incremental", func() error {
		for i := 0; i < reps*len(seq); i++ {
			c.Compute(origins, seq[i%len(seq)])
		}
		return nil
	})
	r.set("bgpsim.compute_incremental_us", s*1e6/float64(reps*len(seq)), "us")
	f := bgpsim.NewFabric(g, origins)
	flips := 0
	s, _ = tr.timed("bgpsim.fabric_flip", func() error {
		for i := 0; i < reps*len(seq); i++ {
			for j, a := range seq[i%len(seq)] {
				if f.SetAnnounced(j, a) {
					flips++
				}
			}
		}
		return nil
	})
	r.set("bgpsim.fabric_flip_us", s*1e6/float64(max(flips, 1)), "us")

	n := 1_000_000
	if p.Smoke {
		n = 10_000
	}
	ncfg := netsim.DefaultConfig()
	var sink float64
	s, err := tr.timed("netsim.evaluate", func() error {
		for i := 0; i < n; i++ {
			st, err := netsim.Evaluate(50_000, netsim.Load{LegitQPS: 4000, AttackQPS: float64(i%400) * 1000}, ncfg)
			if err != nil {
				return err
			}
			sink += st.LossFrac
		}
		return nil
	})
	runtime.KeepAlive(sink)
	r.set("netsim.evaluate_ns", s*1e9/float64(n), "ns")
	return err
}

// checkpointLayers times the snapshot codec and store on a mid-run
// snapshot: a snapshot holds every series up to its minute, so the one at
// half the horizon costs what the run's snapshots cost on average.
func checkpointLayers(p params, r *result, tr *tracer, cfg core.Config, opts []core.Option, every int) error {
	dir, err := os.MkdirTemp(p.Out, "ckpt-mid-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	half := cfg
	half.Minutes = cfg.Minutes / 2 / every * every
	ev, err := core.NewEvaluator(half, append(append([]core.Option(nil), opts...), core.WithCheckpoint(dir, every))...)
	if err == nil {
		err = ev.Run()
	}
	if err != nil {
		return err
	}
	var snap *checkpoint.Snapshot
	s, err := tr.timed("checkpoint.load_latest", func() (err error) {
		snap, err = checkpoint.LoadLatest(dir)
		return err
	})
	if err != nil {
		return err
	}
	r.set("checkpoint.load_latest_ms", s*1e3, "ms")

	const reps = 5
	var data []byte
	var encode, write, decode []float64
	before := readMem()
	for i := 0; i < reps; i++ {
		s, _ = tr.timed("checkpoint.encode", func() error {
			data = checkpoint.Encode(snap)
			return nil
		})
		encode = append(encode, s*1e3)
	}
	r.set("checkpoint.alloc_mib_per_encode", float64(memSince(before).Bytes)/reps/(1<<20), "MiB")
	for i := 0; i < reps; i++ {
		if s, err = tr.timed("checkpoint.write", func() error { return checkpoint.Write(dir, snap) }); err != nil {
			return err
		}
		write = append(write, s*1e3)
		if s, err = tr.timed("checkpoint.decode", func() error {
			_, err := checkpoint.Decode(data)
			return err
		}); err != nil {
			return err
		}
		decode = append(decode, s*1e3)
	}
	count := float64(cfg.Minutes / every)
	r.set("checkpoint.count", count, "count")
	r.set("checkpoint.bytes", float64(len(data)), "B")
	r.setMedian("checkpoint.encode_ms", encode, "ms")
	r.setMedian("checkpoint.write_ms", write, "ms")
	r.setMedian("checkpoint.decode_ms", decode, "ms")
	r.set("core.snapshot_build_s", r.Metrics["core.run_s"].Value-r.Metrics["core.run_plain_s"].Value-count*stats.Median(write)/1e3, "s")
	return nil
}

// durabilityLayers times the two primitives under every crash-safe write:
// the atomic whole-file writer and the fsynced ledger append.
func durabilityLayers(p params, r *result, tr *tracer) error {
	dir, err := os.MkdirTemp(p.Out, "durability-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	files, appends := 200, 1000
	if p.Smoke {
		files, appends = 10, 20
	}
	page := bytes.Repeat([]byte{0xA5}, 4096)
	s, err := tr.timed("atomicio.write", func() error {
		for i := 0; i < files; i++ {
			if err := atomicio.WriteFileBytes(filepath.Join(dir, "page.bin"), page); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.set("atomicio.write_ms", s*1e3/float64(files), "ms")

	format := ledger.Format{Magic: "RBENCHLG", Version: 1}
	path := filepath.Join(dir, "ledger.bin")
	led, _, err := ledger.Open(path, format, nil)
	if err != nil {
		return err
	}
	record := bytes.Repeat([]byte{0x5A}, 256)
	s, err = tr.timed("ledger.append", func() error {
		for i := 0; i < appends; i++ {
			if err := led.Append(record); err != nil {
				return err
			}
		}
		return nil
	})
	if cerr := led.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	r.set("ledger.append_us", s*1e6/float64(appends), "us")
	start := time.Now()
	recs, err := ledger.Read(path, format, nil)
	if err != nil {
		return err
	}
	tr.add(0, "ledger.read", start, time.Now())
	r.verify("ledger.read_back", len(recs) == appends, "ledger read back %d of %d records", len(recs), appends)
	r.set("ledger.read_ms", time.Since(start).Seconds()*1e3, "ms")
	return nil
}
