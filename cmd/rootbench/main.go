// Command rootbench is the repository's end-to-end benchmark: seven
// workloads over the three faces of the system (event replay, durability
// and sweeps, the real DNS serving path), each reported as the same four
// end-to-end metrics, plus a separate traced run that breaks every
// workload down by layer. BENCHMARK.json at the repository root declares
// the workloads, metrics and regression bounds; bench/README.md explains
// why each was chosen and what each layer metric is predicted to move.
//
// Usage:
//
//	rootbench [-seed N] [-seconds S] [-trace] [-smoke] [-workload NAME] [-out DIR]
//	rootbench -compare A.json B.json
//
// Without -workload every workload runs, each in a fresh re-exec'd child
// process (so peak RSS and allocation counters are per workload) with
// GOMAXPROCS pinned to min(nproc, 2); one "workload metric value unit"
// line is printed per metric and bench/out/results.json is written
// atomically. With -workload NAME only that workload runs and the last
// line of standard output is one JSON object {correct, attempted, failed,
// metrics} carrying every end-to-end metric (or, with -trace, every
// per-layer metric: layers the workload never enters read 0).
//
// Every input is generated from -seed; a workload repeats one fixed-size
// unit of work for about -seconds seconds and reports the fastest unit's
// cost per operation. -trace performs the traced run instead of the
// untraced one: the harness records a span around every call into a layer,
// writes them to bench/out/trace-<workload>.json and prints per-layer
// metrics. End-to-end numbers only ever come from untraced runs. -smoke
// shrinks every size for tests.
//
// -compare prints, per (workload, end-to-end metric), the relative
// difference of two results.json files against the metric's bound from
// BENCHMARK.json and exits non-zero when any pair is outside it.
//
// Exit status follows the core.Exit* contract: core.ExitOK on a complete,
// correct run; core.ExitUsage for rejected flags; core.ExitFailure when a
// workload fails, a correctness check fails, or -compare finds a
// regression.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/rootevent/anycastddos/internal/atomicio"
	"github.com/rootevent/anycastddos/internal/core"
)

// params is what one workload run is given: everything else it derives.
type params struct {
	Seed    int64
	Seconds float64
	Smoke   bool
	Trace   bool
	// Out is the absolute directory for results, traces and scratch
	// state (checkpoints, campaign directories); nothing is written
	// outside it.
	Out string
	// CampaignBin is the cmd/campaign binary campaign_grid spawns, built
	// by the parent so the toolchain's memory never shows in the workload
	// child's RUSAGE_CHILDREN.
	CampaignBin string
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("rootbench: ")
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("rootbench", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 10, "how long each workload measures")
	trace := fs.Bool("trace", false, "perform the traced run: per-layer metrics and bench/out/trace-<workload>.json")
	smoke := fs.Bool("smoke", false, "shrink every size (tests)")
	workload := fs.String("workload", "", "run only this workload and end with the one-line JSON result")
	out := fs.String("out", filepath.Join("bench", "out"), "directory for results.json, traces and scratch state")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition (metric names, units, bounds)")
	compare := fs.Bool("compare", false, "compare two results.json files against the bounds: -compare A.json B.json")
	child := fs.String("child", "", "internal: run this workload in this process and print its result")
	campaignBin := fs.String("campaign-bin", "", "internal: prebuilt cmd/campaign binary")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return core.ExitUsage
	}
	if *compare {
		if fs.NArg() != 2 {
			log.Print("usage: rootbench -compare A.json B.json")
			return core.ExitUsage
		}
		return compareMain(stdout, *specPath, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 || *seconds <= 0 {
		log.Print("usage: no positional arguments; -seconds must be positive")
		return core.ExitUsage
	}
	absOut, err := filepath.Abs(*out)
	if err == nil {
		err = os.MkdirAll(absOut, 0o755)
	}
	if err != nil {
		log.Print(err)
		return core.ExitFailure
	}
	p := params{Seed: *seed, Seconds: *seconds, Smoke: *smoke, Trace: *trace, Out: absOut, CampaignBin: *campaignBin}

	if *child != "" {
		return childMain(stdout, *child, p)
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		log.Print(err)
		return core.ExitUsage
	}
	names := spec.workloadNames()
	if *workload != "" {
		if !slices.Contains(names, *workload) {
			log.Printf("unknown -workload %q (have %s)", *workload, strings.Join(names, ", "))
			return core.ExitUsage
		}
		names = []string{*workload}
	}
	return parentMain(stdout, spec, names, *workload != "", p)
}

// normalizeArgs folds the driver's "--trace 0|1" into "-trace=0|1": a Go
// bool flag takes its value only in the "=" form, and plain "-trace" must
// keep meaning true.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, "-trace="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

// childMain runs one workload in this process and prints its result as
// one JSON line. A failed correctness check still prints the result (with
// correct=false) so the parent can say which check failed.
func childMain(stdout io.Writer, name string, p params) int {
	w, ok := workloads[name]
	if !ok {
		log.Printf("unknown workload %q", name)
		return core.ExitUsage
	}
	r, err := w.run(p)
	if err != nil {
		log.Printf("%s: %v", name, err)
		return core.ExitFailure
	}
	finish(r, name)
	body, err := json.Marshal(r)
	if err != nil {
		log.Printf("%s: encode result: %v", name, err)
		return core.ExitFailure
	}
	fmt.Fprintf(stdout, "%s\n", body)
	if !r.Correct {
		return core.ExitFailure
	}
	return core.ExitOK
}

// finish stamps a workload's result with what the process knows: its name
// and its memory high-water mark.
func finish(r *result, name string) {
	r.Workload = name
	r.set("peak_rss_mib", peakRSSMiB(workloads[name].campaign), "MiB")
}

// environment is recorded next to the numbers in results.json.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	Batched    bool    `json:"udpbatch_batched"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke,omitempty"`
}

type resultsFile struct {
	Env       environment `json:"env"`
	Workloads []*result   `json:"workloads"`
}

// parentMain runs each named workload in its own child process, prints
// the metric lines, writes results.json and (contract mode) ends with the
// one-line JSON result.
func parentMain(stdout io.Writer, spec *benchSpec, names []string, contract bool, p params) int {
	procs := min(runtime.NumCPU(), 2)
	env := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: procs, GoVersion: runtime.Version(),
		Kernel: kernelRelease(), Batched: udpBatched(), Seed: p.Seed, Seconds: p.Seconds, Smoke: p.Smoke,
	}
	self, err := os.Executable()
	if err != nil {
		log.Printf("resolve own binary for workload children: %v", err)
		return core.ExitFailure
	}
	code := core.ExitOK
	var results []*result
	for _, name := range names {
		// Untraced first, always: end-to-end numbers never come from a
		// traced run. Contract mode runs exactly the pass the driver asked
		// for.
		passes := []bool{false}
		if p.Trace {
			passes = []bool{false, true}
			if contract {
				passes = []bool{true}
			}
		}
		var merged *result
		for _, traced := range passes {
			cp := p
			cp.Trace = traced
			r, err := runChild(self, name, procs, cp)
			if r == nil {
				log.Printf("%s: %v", name, err)
				return core.ExitFailure
			}
			if err != nil {
				code = core.ExitFailure
			}
			if err := spec.checkDeclared(r, traced); err != nil {
				log.Printf("%s: %v", name, err)
				code = core.ExitFailure
			}
			printResult(stdout, spec, r, traced)
			if merged == nil {
				merged = r
			} else {
				merged.merge(r)
			}
		}
		results = append(results, merged)
	}
	rf := resultsFile{Env: env, Workloads: results}
	body, err := json.MarshalIndent(rf, "", "  ")
	if err == nil {
		err = atomicio.WriteFileBytes(filepath.Join(p.Out, "results.json"), append(body, '\n'))
	}
	if err != nil {
		log.Printf("write results.json: %v", err)
		code = core.ExitFailure
	}
	if contract {
		line, err := json.Marshal(spec.contractResult(results[0], p.Trace))
		if err != nil {
			log.Print(err)
			return core.ExitFailure
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return code
}

// runChild re-executes this binary as one workload's child and decodes the
// result it prints. A child that exits non-zero but still printed a result
// (a failed correctness check) returns both the result and an error.
func runChild(self, name string, procs int, p params) (*result, error) {
	args := []string{
		"-child", name,
		"-seed", strconv.FormatInt(p.Seed, 10),
		"-seconds", strconv.FormatFloat(p.Seconds, 'g', -1, 64),
		"-smoke=" + strconv.FormatBool(p.Smoke),
		"-trace=" + strconv.FormatBool(p.Trace),
		"-out", p.Out,
	}
	var parentSetup float64
	if workloads[name].campaign {
		// The child binary's build is part of this workload's set-up; it
		// happens here so the Go toolchain's processes are not children of
		// the process whose RUSAGE_CHILDREN is the workload's memory. Like
		// every set-up it is repeated and the fastest taken.
		var builds []float64
		for i := 0; i < setupReps; i++ {
			start := time.Now()
			bin, cleanup, err := buildCampaign(p.Out)
			if err != nil {
				return nil, err
			}
			defer cleanup()
			builds = append(builds, time.Since(start).Seconds())
			if i == 0 {
				args = append(args, "-campaign-bin", bin)
			}
		}
		parentSetup = fastest(builds)
	}
	cmd := exec.Command(self, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("workload child: %w", runErr)
		}
		return nil, fmt.Errorf("workload child printed no result: %w", err)
	}
	if m, ok := r.Metrics["setup_s"]; ok && parentSetup > 0 {
		m.Value += parentSetup
		r.Metrics["setup_s"] = m
	}
	if runErr != nil {
		return &r, fmt.Errorf("workload child: %w", runErr)
	}
	return &r, nil
}

// buildCampaign compiles cmd/campaign into a scratch directory under out.
func buildCampaign(out string) (bin string, cleanup func(), err error) {
	root, err := moduleRoot()
	if err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(out, "campaign-bin-")
	if err != nil {
		return "", nil, err
	}
	cleanup = func() { os.RemoveAll(dir) }
	bin = filepath.Join(dir, "campaign")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/campaign")
	cmd.Dir = root
	if outb, err := cmd.CombinedOutput(); err != nil {
		cleanup()
		return "", nil, fmt.Errorf("build cmd/campaign: %w\n%s", err, outb)
	}
	return bin, cleanup, nil
}

// moduleRoot finds the directory holding go.mod at or above the working
// directory (the driver runs from the checkout root; tests from the package).
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod at or above the working directory")
		}
		dir = parent
	}
}

// printResult prints one "workload metric value unit" line per metric of
// the pass just run, in BENCHMARK.json order, then counts and fingerprints.
func printResult(w io.Writer, spec *benchSpec, r *result, traced bool) {
	defs := spec.EndToEnd
	if traced {
		defs = spec.PerLayer
	}
	for _, d := range defs {
		if m, ok := r.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "%s %s %s %s\n", r.Workload, d.Name, formatValue(m.Value), m.Unit)
		}
	}
	fmt.Fprintf(w, "%s attempted %d count\n%s failed %d count\n", r.Workload, r.Attempted, r.Workload, r.Failed)
	keys := make([]string, 0, len(r.Fingerprints))
	for k := range r.Fingerprints {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s fingerprint.%s %s\n", r.Workload, k, r.Fingerprints[k])
	}
	for _, c := range r.Checks {
		if !c.OK {
			fmt.Fprintf(w, "%s CHECK FAILED %s: %s\n", r.Workload, c.Name, c.Detail)
		}
	}
	if traced {
		layers := make([]string, 0, len(r.LayerSelfS))
		for k := range r.LayerSelfS {
			layers = append(layers, k)
		}
		sort.Strings(layers)
		for _, k := range layers {
			fmt.Fprintf(w, "%s self.%s %s s\n", r.Workload, k, formatValue(r.LayerSelfS[k]))
		}
	}
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
