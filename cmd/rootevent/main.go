// Command rootevent runs the full Nov 30 / Dec 1 2015 reproduction and
// regenerates every table and figure of the paper's evaluation.
//
// Usage:
//
//	rootevent [-seed N] [-vps N] [-small] [-workers N] [-out DIR] [-only EXPR]
//	          [-faults random:SEED[:PROFILE]] [-minutes N]
//	          [-checkpoint DIR [-checkpoint-every N] [-resume | -supervise]]
//	          [-hashfile PATH]
//
// Results are written under -out (default ./out): one .txt rendering and,
// where applicable, one .csv series file per experiment. -only restricts
// output to a comma-separated list like "table2,fig3,fig11". All output
// files are written atomically (temp + fsync + rename), so a killed run
// never leaves torn results behind.
//
// With -checkpoint the engine snapshots its state every -checkpoint-every
// minutes; -resume restarts from the newest good snapshot (or from scratch
// when none is usable), and -supervise additionally runs the whole
// simulation under a watchdog that restarts from the last checkpoint after
// stalls and recovered panics, writing out/recovery.json. Either way the
// final output is byte-identical to an uninterrupted run.
//
// Exit status (the core.Exit* contract, stable for parent supervisors such
// as the campaign runner): 0 clean success, 1 generic failure, 2 panic,
// 3 restart-budget exhaustion under -supervise, 4 context cancellation.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"github.com/rootevent/anycastddos/internal/analysis"
	"github.com/rootevent/anycastddos/internal/atomicio"
	"github.com/rootevent/anycastddos/internal/attack"
	"github.com/rootevent/anycastddos/internal/core"
	"github.com/rootevent/anycastddos/internal/faults"
	"github.com/rootevent/anycastddos/internal/report"
	"github.com/rootevent/anycastddos/internal/rssac"
	"github.com/rootevent/anycastddos/internal/stats"
	"github.com/rootevent/anycastddos/internal/topo"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rootevent: ")
	if err := run(os.Args[1:]); err != nil {
		log.Print(err)
		os.Exit(core.ExitCode(err))
	}
}

// run is the whole command. Every failure comes back as an error so that the
// deferred profile writers run before main exits through core.ExitCode.
func run(args []string) (err error) {
	fs := flag.NewFlagSet("rootevent", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "simulation seed (runs are bit-reproducible per seed)")
	vps := fs.Int("vps", 4000, "Atlas vantage-point population size")
	small := fs.Bool("small", false, "small topology and population for a quick run")
	workers := fs.Int("workers", 0, "parallel workers for simulation and measurement (0 = all cores; output is identical for any value)")
	outDir := fs.String("out", "out", "output directory")
	only := fs.String("only", "", "comma-separated experiment list (e.g. table2,fig3); empty = all")
	saveData := fs.String("save", "", "also archive the cleaned measurement dataset to this file")
	scheduleName := fs.String("schedule", "nov2015", "attack scenario: nov2015 (the paper) or june2016 (the follow-up event)")
	faultsSpec := fs.String("faults", "", "inject a seeded fault plan on top of the attack: random:SEED[:PROFILE] (profiles: light, heavy, monitor)")
	verbose := fs.Bool("progress", false, "log simulation/measurement progress")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file before exiting")
	minutesFlag := fs.Int("minutes", 0, "override the simulated minutes (0 = schedule default)")
	ckptDir := fs.String("checkpoint", "", "snapshot engine state into this directory for crash recovery")
	ckptEvery := fs.Int("checkpoint-every", 10, "minutes between checkpoints (with -checkpoint)")
	resume := fs.Bool("resume", false, "resume from the newest good snapshot in -checkpoint (falls back to a fresh run)")
	supervise := fs.Bool("supervise", false, "run under the crash supervisor: watchdog plus bounded restarts from -checkpoint")
	hashFile := fs.String("hashfile", "", "write the hex SHA-256 of the cleaned dataset to this file")
	_ = fs.Parse(args) // ExitOnError: Parse exits rather than return an error

	if *cpuProfile != "" {
		// The profile streams for the lifetime of the run; a temp+rename
		// write cannot express that, and a torn profile is harmless.
		f, err := os.Create(*cpuProfile) //repolint:allow atomicwrite
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); err == nil && cerr != nil {
				err = fmt.Errorf("cpuprofile: %w", cerr)
			}
		}()
	}
	defer writeHeapProfile(*memProfile)

	cfg := core.DefaultConfig(*seed)
	cfg.VPs = *vps
	if *small {
		cfg.Topology = &topo.Config{Tier1s: 6, Tier2s: 60, Stubs: 800, Seed: *seed}
		cfg.VPs = 600
	}
	if *minutesFlag > 0 {
		cfg.Minutes = *minutesFlag
	}
	opts := []core.Option{core.WithWorkers(*workers)}
	switch *scheduleName {
	case "nov2015":
		// the default
	case "june2016":
		opts = append(opts, core.WithSchedule(attack.June2016Schedule()))
	default:
		return fmt.Errorf("unknown -schedule %q (nov2015 or june2016)", *scheduleName)
	}
	if *faultsSpec != "" {
		plan, err := parseFaultsSpec(*faultsSpec)
		if err != nil {
			return err
		}
		log.Printf("fault injection: %s", plan)
		opts = append(opts, core.WithFaults(plan))
	}
	if *verbose {
		opts = append(opts, core.WithProgress(func(p core.Progress) {
			// Report at ~10% steps; progress arrives once per minute (run)
			// or per vantage point (measure), so modulo keeps it quiet.
			step := p.Total / 10
			if step == 0 {
				step = 1
			}
			if p.Done%step == 0 || p.Done == p.Total {
				log.Printf("  %s %d/%d", p.Stage, p.Done, p.Total)
			}
		}))
	}

	want := map[string]bool{}
	for _, k := range strings.Split(*only, ",") {
		if k = strings.TrimSpace(k); k != "" {
			want[k] = true
		}
	}
	selected := func(key string) bool { return len(want) == 0 || want[key] }

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}

	if (*resume || *supervise) && *ckptDir == "" {
		return errors.New("-resume and -supervise require -checkpoint DIR")
	}
	if *ckptDir != "" && !*supervise {
		// The supervisor appends its own checkpoint option per attempt.
		opts = append(opts, core.WithCheckpoint(*ckptDir, *ckptEvery))
	}

	start := time.Now()
	log.Printf("building evaluator (seed %d, %d VPs)...", *seed, cfg.VPs)
	var ev *core.Evaluator
	switch {
	case *supervise:
		log.Printf("simulating the two event days (supervised)...")
		var rep *core.RecoveryReport
		ev, rep, err = core.Supervise(context.Background(), cfg, core.SupervisorConfig{
			Dir:    *ckptDir,
			EveryN: *ckptEvery,
			Seed:   *seed,
			Logf:   log.Printf,
		}, opts...)
		if werr := writeRecoveryReport(filepath.Join(*outDir, "recovery.json"), rep); werr != nil {
			log.Printf("recovery report: %v", werr)
		} else {
			log.Printf("wrote %s", filepath.Join(*outDir, "recovery.json"))
		}
		if err != nil {
			// main turns the cause into its documented exit code (see
			// core.ExitCode): 2 panic, 3 restart budget exhausted, 4
			// canceled, 1 anything else — so a parent supervisor can
			// classify the failure without log parsing.
			return fmt.Errorf("supervised run failed: %w", err)
		}
	case *resume:
		log.Printf("simulating the two event days (resuming from %s)...", *ckptDir)
		if ev, err = core.ResumeRun(*ckptDir, cfg, opts...); err != nil {
			return err
		}
	default:
		if ev, err = core.NewEvaluator(cfg, opts...); err != nil {
			return err
		}
		log.Printf("simulating the two event days...")
		if err := ev.Run(); err != nil {
			return err
		}
	}
	log.Printf("running the Atlas measurement campaign...")
	d, err := ev.Measure()
	if err != nil {
		return err
	}
	log.Printf("simulation + measurement done in %v (%d VPs kept, %d excluded)",
		time.Since(start).Round(time.Millisecond), d.NumVPs-d.NumExcluded(), d.NumExcluded())

	if *hashFile != "" {
		var buf bytes.Buffer
		if err := d.Save(&buf); err != nil {
			return err
		}
		sum := sha256.Sum256(buf.Bytes())
		if err := atomicio.WriteFileBytes(*hashFile, []byte(hex.EncodeToString(sum[:])+"\n")); err != nil {
			return err
		}
		log.Printf("dataset hash %x -> %s", sum[:4], *hashFile)
	}

	if *saveData != "" {
		if err := atomicio.WriteFile(*saveData, d.Save); err != nil {
			return err
		}
		log.Printf("archived dataset to %s", *saveData)
	}

	an := analysis.New(ev, d)

	// The first experiment to fail ends the run: its error is kept, every
	// later emit and writeCSV is a no-op, and run returns it at the end.
	var failed error
	emit := func(key, desc string, fn func(w io.Writer) error) {
		if failed != nil || !selected(key) {
			return
		}
		path := filepath.Join(*outDir, key+".txt")
		err := atomicio.WriteFile(path, func(w io.Writer) error {
			fmt.Fprintf(w, "# %s\n# seed=%d vps=%d\n\n", desc, *seed, cfg.VPs)
			return fn(w)
		})
		if err != nil {
			failed = fmt.Errorf("%s: %w", key, err)
			return
		}
		log.Printf("wrote %s (%s)", path, desc)
	}
	writeCSV := func(key string, series ...*stats.Series) {
		if failed != nil || !selected(key) || len(series) == 0 {
			return
		}
		path := filepath.Join(*outDir, key+".csv")
		err := atomicio.WriteFile(path, func(w io.Writer) error {
			return report.WriteSeriesCSV(w, series...)
		})
		if err != nil {
			failed = fmt.Errorf("%s: %w", key, err)
		}
	}

	letterSeriesCSV := func(m map[byte]*stats.Series) []*stats.Series {
		var out []*stats.Series
		for _, lb := range ev.Deployment.SortedLetters() {
			if s, ok := m[lb]; ok {
				out = append(out, s)
			}
		}
		return out
	}

	emit("table2", "Table 2: letters, reported vs observed sites", func(w io.Writer) error {
		return report.WriteTable2(w, an.Table2())
	})
	emit("table3", "Table 3: RSSAC-002 event-size estimation", func(w io.Writer) error {
		for _, evIdx := range ev.SimulatedEvents() {
			res, err := an.Table3(evIdx)
			if err != nil {
				return err
			}
			if err := report.WriteTable3(w, res); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		return nil
	})
	emit("fig2", "Figure 2 / §2.2: policy thought experiment", func(w io.Writer) error {
		return writePolicyCases(w)
	})

	fig3, err := an.Figure3()
	if err != nil {
		return err
	}
	emit("fig3", "Figure 3: VPs with successful queries per letter", func(w io.Writer) error {
		return report.WriteLetterSeries(w, "VPs with successful queries (10-min bins)", fig3, 96)
	})
	writeCSV("fig3", letterSeriesCSV(fig3)...)

	fig4, err := an.Figure4()
	if err != nil {
		return err
	}
	emit("fig4", "Figure 4: median RTT per letter", func(w io.Writer) error {
		return report.WriteLetterSeries(w, "Median RTT of successful queries (ms)", fig4, 96)
	})
	writeCSV("fig4", letterSeriesCSV(fig4)...)

	for _, lb := range []byte{'E', 'K'} {
		key5 := fmt.Sprintf("fig5%c", lb+32)
		emit(key5, fmt.Sprintf("Figure 5: %c-Root site swings", lb), func(w io.Writer) error {
			rows, err := an.Figure5(lb)
			if err != nil {
				return err
			}
			return report.WriteFigure5(w, lb, rows)
		})
		key6 := fmt.Sprintf("fig6%c", lb+32)
		emit(key6, fmt.Sprintf("Figure 6: %c-Root per-site catchments", lb), func(w io.Writer) error {
			minis, err := an.Figure6(lb)
			if err != nil {
				return err
			}
			return report.WriteFigure6(w, lb, minis, 96)
		})
	}

	emit("fig7", "Figure 7: RTT at stressed K-Root sites", func(w io.Writer) error {
		series, err := an.Figure7('K', []string{"AMS", "NRT", "LHR", "FRA"})
		if err != nil {
			return err
		}
		byLetter := map[byte]*stats.Series{}
		names := []string{"AMS", "NRT", "LHR", "FRA"}
		var csv []*stats.Series
		for i, n := range names {
			s := series["K-"+n]
			byLetter['1'+byte(i)] = s
			csv = append(csv, s)
			fmt.Fprintf(w, "  %d = K-%s\n", i+1, n)
		}
		writeCSV("fig7", csv...)
		return report.WriteLetterSeries(w, "Median RTT (ms) at selected K sites", byLetter, 96)
	})

	fig8, err := an.Figure8()
	if err != nil {
		return err
	}
	emit("fig8", "Figure 8: site flips per letter", func(w io.Writer) error {
		return report.WriteLetterSeries(w, "Site flips per 10-min bin", fig8, 96)
	})
	writeCSV("fig8", letterSeriesCSV(fig8)...)

	fig9 := an.Figure9()
	emit("fig9", "Figure 9: BGP route changes per letter", func(w io.Writer) error {
		return report.WriteLetterSeries(w, "Route changes at 152 collector peers", fig9, 96)
	})
	writeCSV("fig9", letterSeriesCSV(fig9)...)

	emit("fig10", "Figure 10: flip flows from K-LHR/K-FRA", func(w io.Writer) error {
		for _, evIdx := range ev.SimulatedEvents() {
			flows, err := an.Figure10('K', []string{"LHR", "FRA"}, evIdx)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "Event %d:\n", evIdx+1)
			if err := report.WriteFlipFlows(w, flows); err != nil {
				return err
			}
		}
		return nil
	})
	emit("fig11", "Figure 11: VP raster for K-LHR/K-FRA homes", func(w io.Writer) error {
		rows, err := an.Figure11('K', "LHR", "FRA", "AMS", 300)
		if err != nil {
			return err
		}
		for _, evIdx := range ev.SimulatedEvents() {
			groups, err := an.ClassifyRaster(rows, evIdx)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "event %d behaviour groups (§3.4.2): ", evIdx+1)
			for g := analysis.RasterGroup(0); g < 4; g++ {
				fmt.Fprintf(w, "%s=%d ", g, groups[g])
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
		return report.WriteRaster(w, rows, 180)
	})
	emit("fig12-13", "Figures 12/13: per-server reachability and RTT (K-FRA, K-NRT)", func(w io.Writer) error {
		for _, code := range []string{"FRA", "NRT"} {
			series, err := an.FigureServers('K', code)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "K-%s:\n", code)
			if err := report.WriteServerSeries(w, series, 96); err != nil {
				return err
			}
		}
		return nil
	})
	emit("fig14", "Figure 14: collateral damage at D-Root sites", func(w io.Writer) error {
		sites, err := an.Figure14('D', 0.10)
		if err != nil {
			return err
		}
		if len(sites) == 0 {
			fmt.Fprintln(w, "no D-Root site crossed the 10% dip threshold at this scale")
			return nil
		}
		var csv []*stats.Series
		for _, s := range sites {
			fmt.Fprintf(w, "  %-8s median %4.0f VPs, worst in-event dip %4.1f%%  %s\n",
				s.Site, s.MedianVPs, s.DipFrac*100, report.Sparkline(s.Series, 96))
			csv = append(csv, s.Series)
		}
		writeCSV("fig14", csv...)
		return nil
	})
	emit("fig15", "Figure 15: .nl collateral damage", func(w io.Writer) error {
		series := an.Figure15()
		writeCSV("fig15", series...)
		for i, s := range series {
			min, _, _ := s.Min()
			fmt.Fprintf(w, "  .nl anycast %d (near %s)  %s  min=%.2f\n",
				i+1, ev.NLSites[i], report.Sparkline(s, 96), min)
		}
		return nil
	})
	emit("correlation", "§3.2.1: sites vs worst reachability (paper: R²=0.87)", func(w io.Writer) error {
		res, err := an.SiteCorrelation()
		if err != nil {
			return err
		}
		return report.WriteCorrelation(w, res)
	})
	emit("letterflips", "§3.2.2: failover load at L-Root", func(w io.Writer) error {
		res, err := an.LetterFlips('L')
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(w, "L-Root normal %.0f q/s, peak event %.0f q/s (%.2fx), event-2 mean %.2fx (paper: 1.66x)\n",
			res.NormalQPS, res.PeakEventQPS, res.IncreaseRatio, res.Event2Ratio)
		return err
	})
	emit("ablation", "full-event policy ablation: mix vs all-absorb vs all-withdraw", func(w io.Writer) error {
		abCfg := cfg
		abCfg.VPs = 50 // no measurement pass needed
		rows, err := analysis.PolicyAblation(abCfg)
		if err != nil {
			return err
		}
		out := make([][]string, 0, len(rows))
		for _, r := range rows {
			out = append(out, []string{
				r.Policy,
				fmt.Sprintf("%.1f%%", r.ServedLegitFrac*100),
				fmt.Sprintf("%.1f%%", r.WorstMinuteFrac*100),
				fmt.Sprintf("%d", r.RouteChangeCount),
			})
		}
		if err := report.WriteTable(w, []string{"policy", "legit served (events)", "worst minute", "BGP updates"}, out); err != nil {
			return err
		}
		fmt.Fprintln(w, "\nFor a flood beyond aggregate capacity, absorbing protects more users")
		fmt.Fprintln(w, "than withdrawing — the paper's §2.2 case-5 conclusion at full scale.")
		return nil
	})
	emit("dnsmon", "DNSMON-style availability dashboard", func(w io.Writer) error {
		rows, err := an.DNSMON()
		if err != nil {
			return err
		}
		out := make([][]string, 0, len(rows))
		for _, r := range rows {
			out = append(out, []string{
				string(r.Letter),
				fmt.Sprintf("%.1f%%", r.OverallOKPct),
				fmt.Sprintf("%.1f%%", r.EventOKPct),
				fmt.Sprintf("%.1f%%", r.WorstBinPct),
				fmt.Sprintf("%.0f", r.MedianRTTms),
				fmt.Sprintf("%.0f", r.EventRTTp90ms),
			})
		}
		return report.WriteTable(w, []string{"letter", "overall ok", "event ok", "worst bin", "median RTT ms", "event p90 RTT ms"}, out)
	})
	emit("detect", "blind event detection from the measurement data", func(w io.Writer) error {
		windows, err := an.DetectEvents(0.25, 3)
		if err != nil {
			return err
		}
		for _, win := range windows {
			fmt.Fprintf(w, "detected stress window minutes [%d, %d): letters %s\n",
				win.StartMinute, win.EndMinute, string(win.Letters))
		}
		matched, spurious, missed := analysis.MatchesKnownEvents(windows, ev.Schedule())
		fmt.Fprintf(w, "vs ground truth: %d/%d events matched, %d spurious, %d missed\n",
			matched, len(ev.Schedule().Events), spurious, missed)
		for _, e := range ev.Schedule().Events {
			fmt.Fprintf(w, "(true window: [%d,%d))\n", e.StartMinute, e.EndMinute)
		}
		return nil
	})
	emit("rssac002", "RSSAC-002 daily reports for the reporting letters (A,H,J,K,L)", func(w io.Writer) error {
		dir := filepath.Join(*outDir, "rssac")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		for _, l := range ev.Deployment.Letters {
			if !l.ReportsRSSAC {
				continue
			}
			for _, rep := range ev.RSSACReports(l.Letter) {
				name := fmt.Sprintf("%c-%s.yaml", l.Letter+32, rep.DayString())
				err := atomicio.WriteFile(filepath.Join(dir, name), func(w io.Writer) error {
					return rssac.WriteReport(w, rep)
				})
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "wrote rssac/%s (%.3g queries)\n", name, rep.Queries)
			}
		}
		return nil
	})
	emit("userimpact", "extension (§2.3/§5): end-user impact through caching resolvers", func(w io.Writer) error {
		res, err := an.UserImpact(analysis.DefaultUserImpactConfig(*seed))
		if err != nil {
			return err
		}
		writeCSV("userimpact", res.FailFrac, res.MeanLatencyMs, res.FlipFrac, res.RootQueryFrac)
		maxFail, _, _ := res.FailFrac.Max()
		maxLat, _, _ := res.MeanLatencyMs.Max()
		maxFlip, _, _ := res.FlipFrac.Max()
		fmt.Fprintf(w, "%d user queries via %d resolvers; cache hit rate %.1f%%\n",
			res.TotalQueries, analysis.DefaultUserImpactConfig(*seed).Resolvers, res.CacheHitFrac*100)
		fmt.Fprintf(w, "  failures   %s  worst bin %.3f%%\n", report.Sparkline(res.FailFrac, 96), maxFail*100)
		fmt.Fprintf(w, "  latency ms %s  worst bin %.0f\n", report.Sparkline(res.MeanLatencyMs, 96), maxLat)
		fmt.Fprintf(w, "  flips      %s  worst bin %.1f%%\n", report.Sparkline(res.FlipFrac, 96), maxFlip*100)
		fmt.Fprintln(w, "Matches §2.3: despite per-letter losses up to ~95%, caching and")
		fmt.Fprintln(w, "cross-letter retries keep end-user failures near zero.")
		return nil
	})

	if failed != nil {
		return failed
	}
	log.Printf("all selected experiments done in %v", time.Since(start).Round(time.Millisecond))
	return nil
}

// writeHeapProfile records a post-GC heap profile to path (no-op when
// empty). It runs as a deferred cleanup, so failures log without Fatal —
// the run's results are already on disk.
func writeHeapProfile(path string) {
	if path == "" {
		return
	}
	runtime.GC() // materialize up-to-date allocation statistics
	if err := atomicio.WriteFile(path, pprof.WriteHeapProfile); err != nil {
		log.Printf("memprofile: %v", err)
		return
	}
	log.Printf("wrote heap profile to %s", path)
}

// writeRecoveryReport renders the supervisor's report as indented JSON,
// written atomically so a crash while reporting a crash stays readable.
func writeRecoveryReport(path string, rep *core.RecoveryReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal recovery report: %w", err)
	}
	return atomicio.WriteFileBytes(path, append(data, '\n'))
}

// parseFaultsSpec parses the -faults flag value "random:SEED[:PROFILE]"
// into a deterministic fault plan.
func parseFaultsSpec(spec string) (*faults.Plan, error) {
	parts := strings.Split(spec, ":")
	if parts[0] != "random" || len(parts) < 2 || len(parts) > 3 {
		return nil, fmt.Errorf("bad -faults %q: want random:SEED[:PROFILE]", spec)
	}
	seed, err := strconv.ParseInt(parts[1], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("bad -faults seed %q: %w", parts[1], err)
	}
	pr := faults.LightProfile()
	if len(parts) == 3 {
		if pr, err = faults.ProfileByName(parts[2]); err != nil {
			return nil, err
		}
	}
	return faults.RandomPlan(seed, pr), nil
}

// writePolicyCases renders the §2.2 five-case sweep.
func writePolicyCases(w io.Writer) error {
	const s = 100.0
	fmt.Fprintln(w, "Deployment: s1 = s2 = 100, S3 = 1000; four clients; A0 = A1 sweep")
	rows := [][]string{}
	for _, a := range []float64{20, 40, 80, 120, 300, 600, 700, 900, 1200, 1500, 3000} {
		c := core.ClassifyPaperCase(s, a, a)
		sc := core.PaperScenario(s, a, a)
		hAbsorb, err := sc.Happiness(sc.DefaultAssignment())
		if err != nil {
			return err
		}
		_, hBest, err := sc.Best()
		if err != nil {
			return err
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.0f", a),
			fmt.Sprintf("%d", c.Number),
			fmt.Sprintf("%d", hAbsorb),
			fmt.Sprintf("%d", hBest),
			c.Rationale,
		})
	}
	return report.WriteTable(w, []string{"A0=A1", "case", "H(absorb)", "H(best)", "rationale"}, rows)
}
