// Command rootevent runs the full Nov 30 / Dec 1 2015 reproduction and
// regenerates every table and figure of the paper's evaluation.
//
// Usage:
//
//	rootevent [-seed N] [-vps N] [-small] [-workers N] [-out DIR] [-only KEYS]
//	          [-schedule nov2015|june2016] [-faults none|random:SEED[:PROFILE]] [-minutes N]
//	          [-checkpoint DIR [-checkpoint-every N] [-resume]] [-save PATH] [-hashfile PATH]
//
// Results are written atomically (temp + fsync + rename) under -out
// (default ./out): one .txt rendering per experiment and, for series, a .csv.
// -only selects experiments by key (comma-separated; empty selects all, the
// key none selects nothing). A run goes only as far as its selection needs:
// none (the §2.2 model alone), run (simulate the event) or measure (also run
// the Atlas campaign). -checkpoint needs run, -save and -hashfile measure.
//
//	none     fig2
//	run      table3 fig9 fig15 letterflips rssac002 userimpact ablation
//	measure  table2 fig3 fig4 fig5e fig6e fig5k fig6k fig7 fig8 fig10 fig11
//	         fig12-13 fig14 correlation dnsmon detect
//
// With -checkpoint the engine snapshots its state every -checkpoint-every
// minutes; -resume restarts from the newest good snapshot (or from scratch
// when none is usable). The final output is byte-identical to an
// uninterrupted run. The flags describe the run as one campaign.Scenario;
// the policy ablation scores it against re-runs with every site forced to
// absorb, to withdraw, and to the adaptive controller (campaign defenses
// absorb, withdraw and adaptive), one row each.
//
// Exit status (the core.Exit* contract, stable for parent supervisors such
// as the campaign runner): 0 clean success, 1 generic failure, 2 panic,
// 4 context cancellation, 64 a rejected command line or flag value (an
// unknown -schedule or -only key, -vps below 1, -resume without
// -checkpoint; 0 for -h). 3 is unassigned.
package main

import (
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"github.com/rootevent/anycastddos/internal/analysis"
	"github.com/rootevent/anycastddos/internal/atomicio"
	"github.com/rootevent/anycastddos/internal/campaign"
	"github.com/rootevent/anycastddos/internal/core"
	"github.com/rootevent/anycastddos/internal/report"
	"github.com/rootevent/anycastddos/internal/rssac"
	"github.com/rootevent/anycastddos/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rootevent: ")
	err := run(os.Args[1:])
	if err != nil && !errors.Is(err, errFlags) {
		log.Print(err)
	}
	os.Exit(exitCode(err))
}

// errFlags marks a command line the flag package rejected (and already
// reported on stderr), or a -h request.
var errFlags = errors.New("rootevent: command line rejected")

// errBadValue marks a flag value the flag package accepted but run rejects;
// main still prints it.
var errBadValue = errors.New("rejected flag value")

// exitCode maps run's error onto the core.Exit* contract.
func exitCode(err error) int {
	if errors.Is(err, errFlags) || errors.Is(err, errBadValue) {
		return core.UsageExit(err)
	}
	return core.ExitCode(err)
}

// run is the whole command. Every failure comes back as an error so that the
// deferred profile writers run before main exits through core.ExitCode.
func run(args []string) (err error) {
	fs := flag.NewFlagSet("rootevent", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "simulation seed (runs are bit-reproducible per seed)")
	vps := fs.Int("vps", 4000, "Atlas vantage-point population size")
	small := fs.Bool("small", false, "small topology and population for a quick run")
	workers := fs.Int("workers", 0, "parallel workers for simulation and measurement (0 = all cores; output is identical for any value)")
	outDir := fs.String("out", "out", "output directory")
	only := fs.String("only", "", "comma-separated experiment keys (e.g. table2,fig3); empty = all, none = no experiment")
	saveData := fs.String("save", "", "also archive the cleaned measurement dataset to this file")
	scheduleName := fs.String("schedule", "nov2015", "attack scenario: nov2015 (the paper) or june2016 (the follow-up event)")
	faultsSpec := fs.String("faults", "", "inject a seeded fault plan on top of the attack: none or random:SEED[:PROFILE] (profiles: light, heavy, monitor)")
	verbose := fs.Bool("progress", false, "log simulation/measurement progress")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file before exiting")
	minutesFlag := fs.Int("minutes", 0, "override the simulated minutes (0 = schedule default)")
	ckptDir := fs.String("checkpoint", "", "snapshot engine state into this directory for crash recovery")
	ckptEvery := fs.Int("checkpoint-every", 10, "minutes between checkpoints (with -checkpoint)")
	resume := fs.Bool("resume", false, "resume from the newest good snapshot in -checkpoint (falls back to a fresh run)")
	hashFile := fs.String("hashfile", "", "write the hex SHA-256 of the cleaned dataset to this file")
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errFlags, err)
	}

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

	// The run is one campaign scenario: the schedule's own attack under the
	// as-deployed policy mix. Zero minutes keep the schedule's horizon.
	sc := campaign.Scenario{
		Schedule: *scheduleName, Intensity: 1, DurationScale: 1, Target: "paper",
		Defense: "default", Faults: *faultsSpec, Seed: *seed,
		VPs: *vps, Minutes: *minutesFlag, Workers: *workers,
	}
	_, schedErr := sc.BuildSchedule()
	switch {
	case schedErr != nil:
		return fmt.Errorf("%w: unknown -schedule %q (nov2015 or june2016)", errBadValue, *scheduleName)
	case *vps < 1:
		return fmt.Errorf("%w: -vps %d: want at least 1", errBadValue, *vps)
	case *minutesFlag < 0:
		return fmt.Errorf("%w: -minutes %d: want 0 (the schedule default) or more", errBadValue, *minutesFlag)
	case *resume && *ckptDir == "":
		return fmt.Errorf("%w: -resume requires -checkpoint DIR", errBadValue)
	}
	selected, level, err := selectExperiments(*only)
	if err != nil {
		return err
	}
	if *small {
		sc.Topology = &campaign.TopologySpec{Tier1s: 6, Tier2s: 60, Stubs: 800}
		sc.VPs = 600
	}
	cfg, opts, err := sc.EngineConfig()
	if err != nil {
		// The schedule passed above and the defense is fixed: the fault spec failed.
		return fmt.Errorf("%w: -faults: %w", errBadValue, err)
	}
	if *verbose {
		opts = append(opts, core.WithProgress(func(p core.Progress) {
			// Report at ~10% steps of the per-minute or per-VP progress.
			if step := max(p.Total/10, 1); p.Done%step == 0 || p.Done == p.Total {
				log.Printf("  %s %d/%d", p.Stage, p.Done, p.Total)
			}
		}))
	}
	if *ckptDir != "" {
		opts = append(opts, core.WithCheckpoint(*ckptDir, *ckptEvery))
		level = max(level, needRun)
	}
	if *saveData != "" || *hashFile != "" {
		level = needMeasure
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}

	start := time.Now()
	log.Printf("%d experiment(s) selected; stages needed: %s", len(selected), [...]string{"none", "run", "measure"}[level])
	in := &inputs{sc: sc, outDir: *outDir}
	if level >= needRun {
		log.Printf("building evaluator (seed %d, %d VPs)...", *seed, cfg.VPs)
		if *resume {
			log.Printf("simulating the two event days (resuming from %s)...", *ckptDir)
			if in.ev, err = core.ResumeRun(*ckptDir, cfg, opts...); err != nil {
				return err
			}
		} else {
			if in.ev, err = core.NewEvaluator(cfg, opts...); err != nil {
				return err
			}
			log.Printf("simulating the two event days...")
			if err := in.ev.Run(); err != nil {
				return err
			}
		}
		in.an = analysis.New(in.ev, nil)
	}
	if level >= needMeasure {
		log.Printf("running the Atlas measurement campaign...")
		d, err := in.ev.Measure()
		if err != nil {
			return err
		}
		log.Printf("simulation + measurement done in %v (%d VPs kept, %d excluded)",
			time.Since(start).Round(time.Millisecond), d.NumVPs-d.NumExcluded(), d.NumExcluded())
		if *hashFile != "" {
			h := sha256.New()
			if err := d.Save(h); err != nil {
				return err
			}
			if err := atomicio.WriteFileBytes(*hashFile, fmt.Appendf(nil, "%x\n", h.Sum(nil))); err != nil {
				return err
			}
			log.Printf("dataset hash %x -> %s", h.Sum(nil)[:4], *hashFile)
		}
		if *saveData != "" {
			if err := atomicio.WriteFile(*saveData, d.Save); err != nil {
				return err
			}
			log.Printf("archived dataset to %s", *saveData)
		}
		in.an = analysis.New(in.ev, d)
	}

	for _, e := range selected {
		if err := e.emit(in); err != nil {
			return fmt.Errorf("%s: %w", e.key, err)
		}
	}
	log.Printf("all selected experiments done in %v", time.Since(start).Round(time.Millisecond))
	return nil
}

// need is the last pipeline stage an experiment reads: the §2.2 model alone,
// the simulation, or the Atlas dataset measured from it.
type need int

const (
	needNone need = iota
	needRun
	needMeasure
)

// inputs is what experiments read. Past the stage the selection needs,
// ev and an are nil; at needRun, an has no dataset.
type inputs struct {
	sc     campaign.Scenario
	outDir string
	ev     *core.Evaluator
	an     *analysis.Analyzer
}

// experiment is one -only key. write renders the body of key.txt and
// returns the series of its key.csv companion, if it has one.
type experiment struct {
	key, desc string
	needs     need
	write     func(in *inputs, w io.Writer) (csv []*stats.Series, err error)
}

// selectExperiments parses -only against the experiment table. It returns
// the selected experiments in table order and the last stage they need. No
// key selects every experiment; the key none selects nothing.
func selectExperiments(only string) (sel []experiment, level need, err error) {
	keys := strings.FieldsFunc(only, func(r rune) bool { return r == ',' || r == ' ' })
	for _, k := range keys {
		if k != "none" && !slices.ContainsFunc(experiments, func(e experiment) bool { return e.key == k }) {
			return nil, 0, fmt.Errorf("%w: unknown -only key %q (go doc ./cmd/rootevent lists the keys)", errBadValue, k)
		}
	}
	for _, e := range experiments {
		if len(keys) == 0 || slices.Contains(keys, e.key) {
			sel = append(sel, e)
			level = max(level, e.needs)
		}
	}
	return sel, level, nil
}

// emit writes the experiment's .txt file and, when write returns series,
// its .csv companion.
func (e experiment) emit(in *inputs) error {
	var csv []*stats.Series
	path := filepath.Join(in.outDir, e.key+".txt")
	err := atomicio.WriteFile(path, func(w io.Writer) (err error) {
		fmt.Fprintf(w, "# %s\n# seed=%d vps=%d\n\n", e.desc, in.sc.Seed, in.sc.VPs)
		csv, err = e.write(in, w)
		return err
	})
	if err != nil {
		return err
	}
	log.Printf("wrote %s (%s)", path, e.desc)
	if len(csv) == 0 {
		return nil
	}
	return atomicio.WriteFile(filepath.Join(in.outDir, e.key+".csv"), func(w io.Writer) error {
		return report.WriteSeriesCSV(w, csv...)
	})
}

// experiments is every table and figure rootevent writes, in output order.
var experiments = []experiment{
	{"table2", "Table 2: letters, reported vs observed sites", needMeasure, func(in *inputs, w io.Writer) ([]*stats.Series, error) {
		return nil, report.WriteTable2(w, in.an.Table2())
	}},
	{"table3", "Table 3: RSSAC-002 event-size estimation", needRun, func(in *inputs, w io.Writer) ([]*stats.Series, error) {
		for _, evIdx := range in.ev.SimulatedEvents() {
			res, err := in.an.Table3(evIdx)
			if err != nil {
				return nil, err
			}
			if err := report.WriteTable3(w, res); err != nil {
				return nil, err
			}
			fmt.Fprintln(w)
		}
		return nil, nil
	}},
	{"fig2", "Figure 2 / §2.2: policy thought experiment", needNone, func(_ *inputs, w io.Writer) ([]*stats.Series, error) {
		const s = 100.0
		fmt.Fprintln(w, "Deployment: s1 = s2 = 100, S3 = 1000; four clients; A0 = A1 sweep")
		rows := [][]string{}
		for _, a := range []float64{20, 40, 80, 120, 300, 600, 700, 900, 1200, 1500, 3000} {
			c := core.ClassifyPaperCase(s, a, a)
			sc := core.PaperScenario(s, a, a)
			hAbsorb, err := sc.Happiness(sc.DefaultAssignment())
			if err != nil {
				return nil, err
			}
			_, hBest, err := sc.Best()
			if err != nil {
				return nil, err
			}
			rows = append(rows, []string{fmt.Sprintf("%.0f", a), fmt.Sprint(c.Number), fmt.Sprint(hAbsorb), fmt.Sprint(hBest), c.Rationale})
		}
		return nil, report.WriteTable(w, []string{"A0=A1", "case", "H(absorb)", "H(best)", "rationale"}, rows)
	}},
	letterSeries("fig3", "Figure 3: VPs with successful queries per letter", needMeasure,
		"VPs with successful queries (10-min bins)", (*analysis.Analyzer).Figure3),
	letterSeries("fig4", "Figure 4: median RTT per letter", needMeasure,
		"Median RTT of successful queries (ms)", (*analysis.Analyzer).Figure4),
	siteFigure("fig5e", "Figure 5: E-Root site swings", 'E', (*analysis.Analyzer).Figure5, report.WriteFigure5),
	siteFigure("fig6e", "Figure 6: E-Root per-site catchments", 'E', (*analysis.Analyzer).Figure6, writeFigure6),
	siteFigure("fig5k", "Figure 5: K-Root site swings", 'K', (*analysis.Analyzer).Figure5, report.WriteFigure5),
	siteFigure("fig6k", "Figure 6: K-Root per-site catchments", 'K', (*analysis.Analyzer).Figure6, writeFigure6),
	{"fig7", "Figure 7: RTT at stressed K-Root sites", needMeasure, func(in *inputs, w io.Writer) ([]*stats.Series, error) {
		names := []string{"AMS", "NRT", "LHR", "FRA"}
		series, err := in.an.Figure7('K', names)
		if err != nil {
			return nil, err
		}
		byLetter := map[byte]*stats.Series{}
		var csv []*stats.Series
		for i, n := range names {
			s := series["K-"+n]
			byLetter['1'+byte(i)] = s
			csv = append(csv, s)
			fmt.Fprintf(w, "  %d = K-%s\n", i+1, n)
		}
		return csv, report.WriteLetterSeries(w, "Median RTT (ms) at selected K sites", byLetter, 96)
	}},
	letterSeries("fig8", "Figure 8: site flips per letter", needMeasure,
		"Site flips per 10-min bin", (*analysis.Analyzer).Figure8),
	letterSeries("fig9", "Figure 9: BGP route changes per letter", needRun,
		"Route changes at 152 collector peers", func(an *analysis.Analyzer) (map[byte]*stats.Series, error) { return an.Figure9(), nil }),
	{"fig10", "Figure 10: flip flows from K-LHR/K-FRA", needMeasure, func(in *inputs, w io.Writer) ([]*stats.Series, error) {
		for _, evIdx := range in.ev.SimulatedEvents() {
			flows, err := in.an.Figure10('K', []string{"LHR", "FRA"}, evIdx)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(w, "Event %d:\n", evIdx+1)
			if err := report.WriteFlipFlows(w, flows); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}},
	{"fig11", "Figure 11: VP raster for K-LHR/K-FRA homes", needMeasure, func(in *inputs, w io.Writer) ([]*stats.Series, error) {
		rows, err := in.an.Figure11('K', "LHR", "FRA", "AMS", 300)
		if err != nil {
			return nil, err
		}
		for _, evIdx := range in.ev.SimulatedEvents() {
			groups, err := in.an.ClassifyRaster(rows, evIdx)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(w, "event %d behaviour groups (§3.4.2): ", evIdx+1)
			for g := analysis.RasterGroup(0); g < 4; g++ {
				fmt.Fprintf(w, "%s=%d ", g, groups[g])
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
		return nil, report.WriteRaster(w, rows, 180)
	}},
	{"fig12-13", "Figures 12/13: per-server reachability and RTT (K-FRA, K-NRT)", needMeasure, func(in *inputs, w io.Writer) ([]*stats.Series, error) {
		for _, code := range []string{"FRA", "NRT"} {
			series, err := in.an.FigureServers('K', code)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(w, "K-%s:\n", code)
			if err := report.WriteServerSeries(w, series, 96); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}},
	{"fig14", "Figure 14: collateral damage at D-Root sites", needMeasure, func(in *inputs, w io.Writer) ([]*stats.Series, error) {
		sites, err := in.an.Figure14('D', 0.10)
		if err != nil {
			return nil, err
		}
		if len(sites) == 0 {
			fmt.Fprintln(w, "no D-Root site crossed the 10% dip threshold at this scale")
			return nil, nil
		}
		var csv []*stats.Series
		for _, s := range sites {
			fmt.Fprintf(w, "  %-8s median %4.0f VPs, worst in-event dip %4.1f%%  %s\n",
				s.Site, s.MedianVPs, s.DipFrac*100, report.Sparkline(s.Series, 96))
			csv = append(csv, s.Series)
		}
		return csv, nil
	}},
	{"fig15", "Figure 15: .nl collateral damage", needRun, func(in *inputs, w io.Writer) ([]*stats.Series, error) {
		series := in.an.Figure15()
		for i, s := range series {
			min, _, _ := s.Min()
			fmt.Fprintf(w, "  .nl anycast %d (near %s)  %s  min=%.2f\n",
				i+1, in.ev.NLSites[i], report.Sparkline(s, 96), min)
		}
		return series, nil
	}},
	{"correlation", "§3.2.1: sites vs worst reachability (paper: R²=0.87)", needMeasure, func(in *inputs, w io.Writer) ([]*stats.Series, error) {
		res, err := in.an.SiteCorrelation()
		if err != nil {
			return nil, err
		}
		return nil, report.WriteCorrelation(w, res)
	}},
	{"letterflips", "§3.2.2: failover load at L-Root", needRun, func(in *inputs, w io.Writer) ([]*stats.Series, error) {
		res, err := in.an.LetterFlips('L')
		if err != nil {
			return nil, err
		}
		_, err = fmt.Fprintf(w, "L-Root normal %.0f q/s, peak event %.0f q/s (%.2fx), event-2 mean %.2fx (paper: 1.66x)\n",
			res.NormalQPS, res.PeakEventQPS, res.IncreaseRatio, res.Event2Ratio)
		return nil, err
	}},
	{"ablation", "full-event policy ablation: mix vs all-absorb vs all-withdraw", needRun, func(in *inputs, w io.Writer) ([]*stats.Series, error) {
		rows, err := policyAblation(in.sc, in.ev)
		if err != nil {
			return nil, err
		}
		out := make([][]string, 0, len(rows))
		for _, r := range rows {
			out = append(out, []string{r.Policy, fmt.Sprintf("%.1f%%", r.ServedLegitFrac*100),
				fmt.Sprintf("%.1f%%", r.WorstMinuteFrac*100), fmt.Sprint(r.RouteChangeCount)})
		}
		if err := report.WriteTable(w, []string{"policy", "legit served (events)", "worst minute", "BGP updates"}, out); err != nil {
			return nil, err
		}
		fmt.Fprintln(w, "\nFor a flood beyond aggregate capacity, absorbing protects more users")
		fmt.Fprintln(w, "than withdrawing — the paper's §2.2 case-5 conclusion at full scale.")
		return nil, nil
	}},
	{"dnsmon", "DNSMON-style availability dashboard", needMeasure, func(in *inputs, w io.Writer) ([]*stats.Series, error) {
		rows, err := in.an.DNSMON()
		if err != nil {
			return nil, err
		}
		out := make([][]string, 0, len(rows))
		for _, r := range rows {
			out = append(out, []string{string(r.Letter),
				fmt.Sprintf("%.1f%%", r.OverallOKPct), fmt.Sprintf("%.1f%%", r.EventOKPct), fmt.Sprintf("%.1f%%", r.WorstBinPct),
				fmt.Sprintf("%.0f", r.MedianRTTms), fmt.Sprintf("%.0f", r.EventRTTp90ms)})
		}
		return nil, report.WriteTable(w, []string{"letter", "overall ok", "event ok", "worst bin", "median RTT ms", "event p90 RTT ms"}, out)
	}},
	{"detect", "blind event detection from the measurement data", needMeasure, func(in *inputs, w io.Writer) ([]*stats.Series, error) {
		windows, err := in.an.DetectEvents(0.25, 3)
		if err != nil {
			return nil, err
		}
		for _, win := range windows {
			fmt.Fprintf(w, "detected stress window minutes [%d, %d): letters %s\n",
				win.StartMinute, win.EndMinute, string(win.Letters))
		}
		matched, spurious, missed := analysis.MatchesKnownEvents(windows, in.ev.Schedule())
		fmt.Fprintf(w, "vs ground truth: %d/%d events matched, %d spurious, %d missed\n",
			matched, len(in.ev.Schedule().Events), spurious, missed)
		for _, e := range in.ev.Schedule().Events {
			fmt.Fprintf(w, "(true window: [%d,%d))\n", e.StartMinute, e.EndMinute)
		}
		return nil, nil
	}},
	{"rssac002", "RSSAC-002 daily reports for the reporting letters (A,H,J,K,L)", needRun, func(in *inputs, w io.Writer) ([]*stats.Series, error) {
		dir := filepath.Join(in.outDir, "rssac")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		for _, l := range in.ev.Deployment.Letters {
			if !l.ReportsRSSAC {
				continue
			}
			for _, rep := range in.ev.RSSACReports(l.Letter) {
				name := fmt.Sprintf("%c-%s.yaml", l.Letter+32, rep.DayString())
				err := atomicio.WriteFile(filepath.Join(dir, name), func(w io.Writer) error {
					return rssac.WriteReport(w, rep)
				})
				if err != nil {
					return nil, err
				}
				fmt.Fprintf(w, "wrote rssac/%s (%.3g queries)\n", name, rep.Queries)
			}
		}
		return nil, nil
	}},
	{"userimpact", "extension (§2.3/§5): end-user impact through caching resolvers", needRun, func(in *inputs, w io.Writer) ([]*stats.Series, error) {
		cfg := analysis.DefaultUserImpactConfig(in.sc.Seed)
		res, err := in.an.UserImpact(cfg)
		if err != nil {
			return nil, err
		}
		maxFail, _, _ := res.FailFrac.Max()
		maxLat, _, _ := res.MeanLatencyMs.Max()
		maxFlip, _, _ := res.FlipFrac.Max()
		fmt.Fprintf(w, "%d user queries via %d resolvers; cache hit rate %.1f%%\n",
			res.TotalQueries, cfg.Resolvers, res.CacheHitFrac*100)
		fmt.Fprintf(w, "  failures   %s  worst bin %.3f%%\n", report.Sparkline(res.FailFrac, 96), maxFail*100)
		fmt.Fprintf(w, "  latency ms %s  worst bin %.0f\n", report.Sparkline(res.MeanLatencyMs, 96), maxLat)
		fmt.Fprintf(w, "  flips      %s  worst bin %.1f%%\n", report.Sparkline(res.FlipFrac, 96), maxFlip*100)
		fmt.Fprintln(w, "Matches §2.3: despite per-letter losses up to ~95%, caching and")
		fmt.Fprintln(w, "cross-letter retries keep end-user failures near zero.")
		return []*stats.Series{res.FailFrac, res.MeanLatencyMs, res.FlipFrac, res.RootQueryFrac}, nil
	}},
}

// siteFigure is the entry of a per-site figure of letter lb: fig computes
// it and draw renders it.
func siteFigure[T any](key, desc string, lb byte, fig func(*analysis.Analyzer, byte) (T, error), draw func(io.Writer, byte, T) error) experiment {
	return experiment{key, desc, needMeasure, func(in *inputs, w io.Writer) ([]*stats.Series, error) {
		res, err := fig(in.an, lb)
		if err != nil {
			return nil, err
		}
		return nil, draw(w, lb, res)
	}}
}

func writeFigure6(w io.Writer, lb byte, sites []analysis.Figure6Site) error {
	return report.WriteFigure6(w, lb, sites, 96)
}

// letterSeries is an entry that draws fig's series, one per letter, under
// title, with a CSV companion of the series in letter order.
func letterSeries(key, desc string, needs need, title string, fig func(*analysis.Analyzer) (map[byte]*stats.Series, error)) experiment {
	return experiment{key, desc, needs, func(in *inputs, w io.Writer) ([]*stats.Series, error) {
		series, err := fig(in.an)
		if err != nil {
			return nil, err
		}
		var csv []*stats.Series
		for _, lb := range in.ev.Deployment.SortedLetters() {
			if s, ok := series[lb]; ok {
				csv = append(csv, s)
			}
		}
		return csv, report.WriteLetterSeries(w, title, series, 96)
	}}
}

// policyAblation scores deployed, the completed run of scenario sc, as the
// as-deployed mix against re-runs of sc under all-absorb, all-withdraw and
// the adaptive controller. A score reads the simulation alone, so the
// re-runs use a token VP count.
func policyAblation(sc campaign.Scenario, deployed *core.Evaluator) ([]analysis.PolicyAblationRow, error) {
	var rows []analysis.PolicyAblationRow
	sc.VPs = 50
	for _, defense := range []string{"default", "absorb", "withdraw", "adaptive"} {
		ev, label := deployed, "as-deployed mix"
		if defense != "default" {
			sc.Defense, label = defense, "all-"+defense
			cfg, opts, err := sc.EngineConfig()
			if err != nil {
				return nil, err
			}
			if ev, err = core.NewEvaluator(cfg, opts...); err != nil {
				return nil, err
			}
			if err := ev.Run(); err != nil {
				return nil, err
			}
		}
		row, err := analysis.ScorePolicy(label, ev)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
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
