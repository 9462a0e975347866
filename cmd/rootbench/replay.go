package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/rootevent/anycastddos/internal/analysis"
	"github.com/rootevent/anycastddos/internal/atlas"
	"github.com/rootevent/anycastddos/internal/core"
	"github.com/rootevent/anycastddos/internal/faults"
	"github.com/rootevent/anycastddos/internal/report"
	"github.com/rootevent/anycastddos/internal/stats"
)

// figure is one table or figure of cmd/rootevent: compute runs the
// analysis and returns the rendering, so the two layers are timed apart.
type figure struct {
	name    string
	compute func(an *analysis.Analyzer, ev *core.Evaluator) (render func(w io.Writer) error, err error)
}

// letterSeries adapts the common "one series per letter" figure.
func letterSeries(title string, fn func(an *analysis.Analyzer) (map[byte]*stats.Series, error)) func(*analysis.Analyzer, *core.Evaluator) (func(io.Writer) error, error) {
	return func(an *analysis.Analyzer, _ *core.Evaluator) (func(io.Writer) error, error) {
		m, err := fn(an)
		if err != nil {
			return nil, err
		}
		return func(w io.Writer) error { return report.WriteLetterSeries(w, title, m, 96) }, nil
	}
}

// figures lists what cmd/rootevent emits from a dataset, in its order and
// with its arguments. Left out: fig2 (a dataset-independent thought
// experiment) and the extensions that re-run the engine or write files
// (ablation, rssac002, userimpact).
var figures = []figure{
	{"table2", func(an *analysis.Analyzer, _ *core.Evaluator) (func(io.Writer) error, error) {
		rows := an.Table2()
		return func(w io.Writer) error { return report.WriteTable2(w, rows) }, nil
	}},
	{"table3", func(an *analysis.Analyzer, ev *core.Evaluator) (func(io.Writer) error, error) {
		var all []*analysis.Table3Result
		for _, i := range eventsSimulated(ev) {
			res, err := an.Table3(i)
			if err != nil {
				return nil, err
			}
			all = append(all, res)
		}
		return func(w io.Writer) error {
			for _, res := range all {
				if err := report.WriteTable3(w, res); err != nil {
					return err
				}
			}
			return nil
		}, nil
	}},
	{"fig3", letterSeries("VPs with successful queries (10-min bins)", (*analysis.Analyzer).Figure3)},
	{"fig4", letterSeries("Median RTT of successful queries (ms)", (*analysis.Analyzer).Figure4)},
	{"fig5_6", func(an *analysis.Analyzer, _ *core.Evaluator) (func(io.Writer) error, error) {
		type letterFigs struct {
			rows  []analysis.Figure5Row
			minis []analysis.Figure6Site
		}
		figs := map[byte]letterFigs{}
		for _, lb := range []byte{'E', 'K'} {
			rows, err := an.Figure5(lb)
			if err != nil {
				return nil, err
			}
			minis, err := an.Figure6(lb)
			if err != nil {
				return nil, err
			}
			figs[lb] = letterFigs{rows, minis}
		}
		return func(w io.Writer) error {
			for _, lb := range []byte{'E', 'K'} {
				if err := report.WriteFigure5(w, lb, figs[lb].rows); err != nil {
					return err
				}
				if err := report.WriteFigure6(w, lb, figs[lb].minis, 96); err != nil {
					return err
				}
			}
			return nil
		}, nil
	}},
	{"fig7", func(an *analysis.Analyzer, _ *core.Evaluator) (func(io.Writer) error, error) {
		names := []string{"AMS", "NRT", "LHR", "FRA"}
		series, err := an.Figure7('K', names)
		if err != nil {
			return nil, err
		}
		return func(w io.Writer) error {
			byLetter := map[byte]*stats.Series{}
			for i, n := range names {
				byLetter['1'+byte(i)] = series["K-"+n]
			}
			return report.WriteLetterSeries(w, "Median RTT (ms) at selected K sites", byLetter, 96)
		}, nil
	}},
	{"fig8", letterSeries("Site flips per 10-min bin", (*analysis.Analyzer).Figure8)},
	{"fig9", func(an *analysis.Analyzer, _ *core.Evaluator) (func(io.Writer) error, error) {
		m := an.Figure9()
		return func(w io.Writer) error {
			return report.WriteLetterSeries(w, "Route changes at 152 collector peers", m, 96)
		}, nil
	}},
	{"fig10_11", func(an *analysis.Analyzer, ev *core.Evaluator) (func(io.Writer) error, error) {
		var flows [][]analysis.FlipFlow
		for _, i := range eventsSimulated(ev) {
			f, err := an.Figure10('K', []string{"LHR", "FRA"}, i)
			if err != nil {
				return nil, err
			}
			flows = append(flows, f)
		}
		rows, err := an.Figure11('K', "LHR", "FRA", "AMS", 300)
		if err != nil {
			return nil, err
		}
		for _, i := range eventsSimulated(ev) {
			if _, err := an.ClassifyRaster(rows, i); err != nil {
				return nil, err
			}
		}
		return func(w io.Writer) error {
			for _, f := range flows {
				if err := report.WriteFlipFlows(w, f); err != nil {
					return err
				}
			}
			return report.WriteRaster(w, rows, 180)
		}, nil
	}},
	{"servers", func(an *analysis.Analyzer, _ *core.Evaluator) (func(io.Writer) error, error) {
		var all [][]analysis.ServerSeries
		for _, code := range []string{"FRA", "NRT"} {
			s, err := an.FigureServers('K', code)
			if err != nil {
				return nil, err
			}
			all = append(all, s)
		}
		return func(w io.Writer) error {
			for _, s := range all {
				if err := report.WriteServerSeries(w, s, 96); err != nil {
					return err
				}
			}
			return nil
		}, nil
	}},
	{"fig14", func(an *analysis.Analyzer, _ *core.Evaluator) (func(io.Writer) error, error) {
		sites, err := an.Figure14('D', 0.10)
		if err != nil {
			return nil, err
		}
		return func(w io.Writer) error {
			for _, s := range sites {
				fmt.Fprintf(w, "  %-8s median %4.0f VPs, worst in-event dip %4.1f%%  %s\n",
					s.Site, s.MedianVPs, s.DipFrac*100, report.Sparkline(s.Series, 96))
			}
			return nil
		}, nil
	}},
	{"fig15", func(an *analysis.Analyzer, _ *core.Evaluator) (func(io.Writer) error, error) {
		series := an.Figure15()
		return func(w io.Writer) error {
			for _, s := range series {
				fmt.Fprintf(w, "  %s\n", report.Sparkline(s, 96))
			}
			return nil
		}, nil
	}},
	{"correlation", func(an *analysis.Analyzer, _ *core.Evaluator) (func(io.Writer) error, error) {
		res, err := an.SiteCorrelation()
		if err != nil {
			return nil, err
		}
		return func(w io.Writer) error { return report.WriteCorrelation(w, res) }, nil
	}},
	{"letterflips", func(an *analysis.Analyzer, _ *core.Evaluator) (func(io.Writer) error, error) {
		res, err := an.LetterFlips('L')
		if err != nil {
			return nil, err
		}
		return func(w io.Writer) error {
			_, err := fmt.Fprintf(w, "L-Root normal %.0f q/s, peak event %.0f q/s\n", res.NormalQPS, res.PeakEventQPS)
			return err
		}, nil
	}},
	{"dnsmon", func(an *analysis.Analyzer, _ *core.Evaluator) (func(io.Writer) error, error) {
		rows, err := an.DNSMON()
		if err != nil {
			return nil, err
		}
		return func(w io.Writer) error {
			out := make([][]string, 0, len(rows))
			for _, r := range rows {
				out = append(out, []string{string(r.Letter), fmt.Sprintf("%.1f%%", r.OverallOKPct), fmt.Sprintf("%.1f%%", r.EventOKPct)})
			}
			return report.WriteTable(w, []string{"letter", "overall ok", "event ok"}, out)
		}, nil
	}},
}

// eventsSimulated lists the schedule's events that end inside the simulated
// horizon: replay_nov30 stops at midnight, before the Dec 1 event.
func eventsSimulated(ev *core.Evaluator) []int {
	var idx []int
	for i, e := range ev.Schedule().Events {
		if e.EndMinute <= ev.Cfg.Minutes {
			idx = append(idx, i)
		}
	}
	return idx
}

// replayed is what one pass through the replay pipeline produced.
type replayed struct {
	ev       *core.Evaluator
	d        *atlas.Dataset
	hash     string
	matched  int // known events the blind detector found
	spurious int // detected windows matching no known event
	cells    int64
}

// measureSaveAnalyze is the replay pipeline after Run: the Atlas campaign,
// the dataset archive into a SHA-256 writer, and every table and figure
// rendered to io.Discard — each call into a layer under its own span.
func measureSaveAnalyze(u *unit, ev *core.Evaluator, withFigures bool) (*replayed, error) {
	tr, out := u.Tr, &replayed{ev: ev}
	err := tr.do(u.Span, "core.measure", func() (err error) {
		out.d, err = ev.Measure()
		return err
	})
	if err != nil {
		return nil, err
	}
	d := out.d
	out.cells = int64(d.NumVPs) * int64(len(d.Letters)) * int64(d.Bins)
	if err := tr.do(u.Span, "atlas.save", func() (err error) {
		out.hash, err = datasetHash(d)
		return err
	}); err != nil {
		return nil, err
	}
	if !withFigures {
		return out, nil
	}
	an := analysis.New(ev, d)
	for _, f := range figures {
		var render func(io.Writer) error
		if err := tr.do(u.Span, "analysis."+f.name, func() (err error) {
			render, err = f.compute(an, ev)
			return err
		}); err != nil {
			return nil, fmt.Errorf("%s: %w", f.name, err)
		}
		if err := tr.do(u.Span, "report."+f.name, func() error { return render(io.Discard) }); err != nil {
			return nil, fmt.Errorf("render %s: %w", f.name, err)
		}
	}
	err = tr.do(u.Span, "analysis.detect_events", func() error {
		windows, err := an.DetectEvents(0.25, 3)
		if err != nil {
			return err
		}
		out.matched, out.spurious, _ = analysis.MatchesKnownEvents(windows, ev.Schedule())
		return nil
	})
	return out, err
}

func datasetHash(d *atlas.Dataset) (string, error) {
	h := sha256.New()
	if err := d.Save(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// minuteClock is the WithProgress hook of traced units: one timestamp per
// simulated minute, turned into spans once Run has returned.
type minuteClock struct{ at []time.Time }

func (m *minuteClock) option() core.Option {
	return core.WithProgress(func(p core.Progress) {
		if p.Stage == core.StageRun {
			m.at = append(m.at, time.Now())
		}
	})
}

// spans records one span per simulated minute under the run span and
// returns the minute durations in microseconds.
func (m *minuteClock) spans(tr *tracer, parent int, runStart time.Time) []float64 {
	us := make([]float64, 0, len(m.at))
	prev := runStart
	for _, t := range m.at {
		tr.add(parent, "core.minute", prev, t)
		us = append(us, float64(t.Sub(prev).Nanoseconds())/1e3)
		prev = t
	}
	return us
}

// tracedRun is Run under a span with per-minute child spans.
func tracedRun(u *unit, ev *core.Evaluator, clock *minuteClock) (minuteUs []float64, err error) {
	start := time.Now()
	id := u.Tr.begin(u.Span, "core.run")
	err = ev.Run()
	u.Tr.end(id)
	if clock != nil {
		minuteUs = clock.spans(u.Tr, id, start)
	}
	return minuteUs, err
}

// workloadReplayNov30 is the headline reproduction: build the evaluator,
// simulate Nov 30, run the Atlas campaign, archive the dataset and produce
// every table and figure. One operation is one dataset cell (VP × letter ×
// 10-minute bin).
func workloadReplayNov30(p params) (*result, error) {
	cfg := core.DefaultConfig(p.Seed)
	cfg.VPs, cfg.Minutes = 1000, 1440
	if p.Smoke {
		cfg.VPs = 150
	}
	r, tr, setup := newResult(), newTracer(p.Trace), &setupTimer{}
	lay := &replayLayers{}

	// Discarded warm-up: the same pipeline at a fraction of the population.
	warm := cfg
	warm.VPs = max(cfg.VPs/10, 20)
	ev, err := core.NewEvaluator(warm, core.WithWorkers(1))
	if err == nil {
		err = ev.Run()
	}
	if err == nil {
		_, err = measureSaveAnalyze(&unit{}, ev, true)
	}
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	st, err := runUnits(p, tr, false, func(u *unit) (int64, error) {
		opts := []core.Option{core.WithWorkers(1)}
		var clock *minuteClock
		if u.Tr != nil {
			clock = &minuteClock{at: make([]time.Time, 0, cfg.Minutes)}
			opts = append(opts, clock.option())
		}
		var ev *core.Evaluator
		if err := setup.time(func() (err error) {
			ev, err = core.NewEvaluator(cfg, opts...)
			return err
		}); err != nil {
			return 0, err
		}
		u.start()
		minuteUs, err := tracedRun(u, ev, clock)
		if err != nil {
			return 0, err
		}
		out, err := measureSaveAnalyze(u, ev, true)
		if err != nil {
			return 0, err
		}
		u.stop()

		again, err := datasetHash(out.d)
		if err != nil {
			return 0, err
		}
		r.verifyOp("replay_nov30.save_hashes_agree", again == out.hash, "two Saves of one dataset hash %s and %s", out.hash, again)
		r.verifyOp("replay_nov30.known_events", out.matched == 1 && out.spurious == 0,
			"blind detection matched %d known events with %d spurious windows, want 1 and 0", out.matched, out.spurious)
		r.Fingerprints["dataset_sha256"] = out.hash
		if u.Tr != nil {
			lay.minuteUs = append(lay.minuteUs, minuteUs...)
			lay.last = out
		}
		return out.cells, nil
	})
	if err != nil {
		return nil, err
	}
	if !p.Trace {
		st.report(r, false)
		setup.report(r)
		return r, nil
	}
	st.report(r, true)
	if err := lay.report(p, r, tr, cfg, nil, st); err != nil {
		return nil, err
	}
	// Sum check: what the timed sections do not attribute to a layer call
	// must stay under 5% of them.
	unattributed := selfShare(tr.spans, "rootbench.timed")
	r.verify("replay_nov30.layers_sum_to_wall", unattributed <= sumCheckLimit(p),
		"run+measure+save+analysis+report leave %.1f%% of the timed section unattributed, limit 5%%", unattributed*100)
	r.LayerSelfS = layerSelfSeconds(tr.spans)
	return r, tr.write(p.Out, "replay_nov30")
}

// sumCheckLimit is how much of a whole its layers may leave unattributed
// (or overshoot it by): 5%, except at smoke sizes, where a loop is a few
// milliseconds and the shares mean nothing.
func sumCheckLimit(p params) float64 {
	if p.Smoke {
		return 1
	}
	return 0.05
}

// workloadReplayCkpt is the same engine with durability writes beside the
// compute: a faulted run that snapshots every 10 simulated minutes, its
// measurement, then a resume from the newest snapshot (measuring the resumed
// run is verification, untimed). The population is small so that snapshot
// writes, not probing, are most of the unit. One operation is one snapshot
// written.
func workloadReplayCkpt(p params) (*result, error) {
	cfg := core.DefaultConfig(p.Seed)
	cfg.VPs, cfg.Minutes = 100, 720
	if p.Smoke {
		cfg.VPs, cfg.Minutes = 40, 120
	}
	const every = 10
	plan := faults.RandomPlan(p.Seed, faults.HeavyProfile())
	base := []core.Option{core.WithWorkers(1), core.WithFaults(plan)}
	r, tr, setup := newResult(), newTracer(p.Trace), &setupTimer{}
	lay := &replayLayers{}

	// The un-checkpointed run is both the discarded warm-up and the
	// reference every checkpointed and resumed dataset must hash equal to.
	ev, err := core.NewEvaluator(cfg, base...)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	plainStart := time.Now()
	if err := ev.Run(); err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	lay.runPlainS = time.Since(plainStart).Seconds()
	ref, err := measureSaveAnalyze(&unit{}, ev, false)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	r.Fingerprints["dataset_sha256"] = ref.hash

	st, err := runUnits(p, tr, false, func(u *unit) (int64, error) {
		dir, err := os.MkdirTemp(p.Out, "ckpt-")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		resumeOpts := append(append([]core.Option(nil), base...), core.WithCheckpoint(dir, every))
		opts := resumeOpts
		var clock *minuteClock
		if u.Tr != nil {
			clock = &minuteClock{at: make([]time.Time, 0, cfg.Minutes)}
			opts = append(append([]core.Option(nil), opts...), clock.option())
		}
		var ev *core.Evaluator
		if err := setup.time(func() (err error) {
			ev, err = core.NewEvaluator(cfg, opts...)
			return err
		}); err != nil {
			return 0, err
		}
		u.start()
		minuteUs, err := tracedRun(u, ev, clock)
		if err != nil {
			return 0, err
		}
		ckpt, err := measureSaveAnalyze(u, ev, false)
		if err != nil {
			return 0, err
		}
		err = u.Tr.do(u.Span, "core.resume", func() (err error) {
			ev, err = core.ResumeRun(dir, cfg, resumeOpts...)
			return err
		})
		u.stop()
		var resumed *replayed
		if err == nil {
			resumed, err = measureSaveAnalyze(&unit{}, ev, false)
		}
		if err != nil {
			return 0, fmt.Errorf("resume: %w", err)
		}

		r.verifyOp("replay_ckpt.checkpointed_equals_plain", ckpt.hash == ref.hash, "checkpointed run hashes %s, plain run %s", ckpt.hash, ref.hash)
		r.verifyOp("replay_ckpt.resumed_equals_plain", resumed.hash == ref.hash, "resumed run hashes %s, plain run %s", resumed.hash, ref.hash)
		if u.Tr != nil {
			lay.minuteUs = append(lay.minuteUs, minuteUs...)
			lay.last = ckpt
		}
		return int64(cfg.Minutes / every), nil
	})
	if err != nil {
		return nil, err
	}
	if !p.Trace {
		st.report(r, false)
		setup.report(r)
		return r, nil
	}
	st.report(r, true)
	if err := lay.report(p, r, tr, cfg, plan, st); err != nil {
		return nil, err
	}
	if err := checkpointLayers(p, r, tr, cfg, base, every); err != nil {
		return nil, err
	}
	if err := durabilityLayers(p, r, tr); err != nil {
		return nil, err
	}
	r.LayerSelfS = layerSelfSeconds(tr.spans)
	return r, tr.write(p.Out, "replay_ckpt")
}
