package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/rootevent/anycastddos/internal/core"
)

const specFile = "../../BENCHMARK.json"

func loadTestSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmokeEmitsDeclaredMetrics runs every workload at smoke scale, untraced
// and traced, and holds the names, units and coverage to BENCHMARK.json.
func TestSmokeEmitsDeclaredMetrics(t *testing.T) {
	spec := loadTestSpec(t)
	out := t.TempDir()
	bin, cleanup, err := buildCampaign(out)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	layerSeen := map[string]bool{}
	for _, name := range spec.workloadNames() {
		w, ok := workloads[name]
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %q, the harness has none", name)
		}
		for _, traced := range []bool{false, true} {
			r, err := w.run(params{Seed: 1, Seconds: 0.1, Smoke: true, Trace: traced, Out: out, CampaignBin: bin})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			finish(r, name)
			if !r.Correct {
				t.Errorf("%s traced=%v: failed checks: %+v", name, traced, r.Checks)
			}
			if r.Attempted < 1 || r.Failed != 0 {
				t.Errorf("%s traced=%v: attempted %d failed %d", name, traced, r.Attempted, r.Failed)
			}
			if err := spec.checkDeclared(r, traced); err != nil {
				t.Errorf("%s traced=%v: %v", name, traced, err)
			}
			for m := range r.Metrics {
				if !nameRE.MatchString(m) {
					t.Errorf("%s: metric name %q", name, m)
				}
			}
			if traced {
				for _, must := range []string{"trace.overhead_frac", "mem.allocs_per_op", "mem.alloc_bytes_per_op"} {
					if _, ok := r.Metrics[must]; !ok {
						t.Errorf("%s: traced pass did not report %s", name, must)
					}
				}
				for m := range r.Metrics {
					layerSeen[m] = true
				}
				if _, err := os.Stat(filepath.Join(out, "trace-"+name+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", name, err)
				}
				continue
			}
			if len(r.Metrics) != len(spec.EndToEnd) {
				t.Errorf("%s: untraced pass reported %d metrics, want the %d end-to-end ones", name, len(r.Metrics), len(spec.EndToEnd))
			}
			for _, d := range spec.EndToEnd {
				if r.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", name, d.Name, r.Metrics[d.Name].Value)
				}
			}
		}
	}
	for _, d := range spec.PerLayer {
		if !layerSeen[d.Name] {
			t.Errorf("per-layer metric %s is declared but no workload's traced pass reports it", d.Name)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(out, "*-*")); len(left) != 7+1 {
		t.Errorf("scratch state left behind in %s: %v", out, left)
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "rootbench.timed", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "core.run", StartNs: 10, EndNs: 30},
		{ID: 3, Parent: 1, Name: "core.measure", StartNs: 30, EndNs: 70},
		{ID: 4, Parent: 2, Name: "core.minute", StartNs: 12, EndNs: 20},
		// Two overlapping children (parallel scenario slots) count once.
		{ID: 5, Parent: 3, Name: "atlas.record", StartNs: 35, EndNs: 55},
		{ID: 6, Parent: 3, Name: "atlas.record", StartNs: 50, EndNs: 65},
		// A child that outlives its parent is clipped to it.
		{ID: 7, Parent: 1, Name: "report.late", StartNs: 90, EndNs: 120},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 100 - 20 - 40 - 10, 2: 20 - 8, 3: 40 - 30, 4: 8, 5: 20, 6: 15, 7: 30} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	if got := selfShare(spans, "rootbench.timed"); got != 0.30 {
		t.Errorf("unattributed share of the timed span = %v, want 0.30", got)
	}
	layers := layerSelfSeconds(spans)
	if got := layers["core"]; got != float64(12+10+8)/1e9 {
		t.Errorf("core layer self time = %v", got)
	}
}

// TestInputsFollowSeed: the same seed yields byte-identical rings and
// campaign spec, another seed different ones.
func TestInputsFollowSeed(t *testing.T) {
	digest := func(rg *rings, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return rg.digest()
	}
	if a, b, c := digest(hotRings(1)), digest(hotRings(1)), digest(hotRings(2)); a != b || a == c {
		t.Errorf("hot rings: seed 1 twice %s %s, seed 2 %s", a, b, c)
	}
	if a, b, c := digest(spoofedRings(1, 1<<12)), digest(spoofedRings(1, 1<<12)), digest(spoofedRings(2, 1<<12)); a != b || a == c {
		t.Errorf("spoofed rings: seed 1 twice %s %s, seed 2 %s", a, b, c)
	}
	grid, err := readGrid()
	if err != nil {
		t.Fatal(err)
	}
	spec := func(seed int64) string {
		s, err := gridSpec(grid, seed, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		if s.GridSize() != 36 {
			t.Errorf("grid has %d scenarios per unit, want 36", s.GridSize())
		}
		return s.Digest()
	}
	if a, b, c := spec(1), spec(1), spec(2); a != b || a == c {
		t.Errorf("campaign spec digest: seed 1 twice %s %s, seed 2 %s", a, b, c)
	}
}

// TestFailsClosed: a corrupted reply is caught by validation, and a failed
// check turns into a non-zero exit with the result still printed.
func TestFailsClosed(t *testing.T) {
	rg, err := hotRings(1)
	if err != nil {
		t.Fatal(err)
	}
	lane, err := startFlood(rg, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer lane.close()
	lane.window(4096)
	if checked, bad := lane.validate(); checked == 0 || bad != 0 {
		t.Fatalf("clean replies: %d checked, %d bad", checked, bad)
	}
	lane.corrupt = true
	if checked, bad := lane.validate(); bad != checked {
		t.Fatalf("corrupted replies: %d of %d caught", bad, checked)
	}

	workloads["test_mismatch"] = workload{run: func(params) (*result, error) {
		r := newResult()
		r.verifyOp("dataset_hashes_agree", "aa" == "bb", "hash %s != %s", "aa", "bb")
		return r, nil
	}}
	defer delete(workloads, "test_mismatch")
	var stdout bytes.Buffer
	if code := run([]string{"-child", "test_mismatch", "-out", t.TempDir()}, &stdout); code != core.ExitFailure {
		t.Errorf("exit %d after a failed check, want %d", code, core.ExitFailure)
	}
	var r result
	if err := json.Unmarshal(stdout.Bytes(), &r); err != nil || r.Correct || len(r.Checks) != 1 || r.Checks[0].OK {
		t.Errorf("result after a failed check: %s (%v)", stdout.String(), err)
	}
}

func TestNormalizeArgs(t *testing.T) {
	for in, want := range map[string]string{
		"--workload x --seed 3 --seconds 10 --trace 0": "--workload x --seed 3 --seconds 10 -trace=0",
		"--trace 1 --seed 3":                           "-trace=1 --seed 3",
		"-trace -smoke":                                "-trace -smoke",
		"-seed 1 -trace":                               "-seed 1 -trace",
	} {
		if got := strings.Join(normalizeArgs(strings.Fields(in)), " "); got != want {
			t.Errorf("normalizeArgs(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCompare(t *testing.T) {
	spec := loadTestSpec(t)
	dir := t.TempDir()
	write := func(name string, scale float64) string {
		r := newResult()
		r.Workload = "flood_hot"
		for _, d := range spec.EndToEnd {
			r.set(d.Name, 100*scale, d.Unit)
		}
		body, err := json.Marshal(resultsFile{Workloads: []*result{r}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, near, far := write("a.json", 1), write("near.json", 1.02), write("far.json", 1.6)
	var out bytes.Buffer
	if code := compareMain(&out, specFile, a, near); code != core.ExitOK {
		t.Errorf("2%% apart: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareMain(&out, specFile, a, far); code != core.ExitFailure || !strings.Contains(out.String(), "OUTSIDE") {
		t.Errorf("60%% apart: exit %d\n%s", code, out.String())
	}
}

// TestContractOutput drives the built binary the way the benchmark driver
// does and checks the last line of each pass.
func TestContractOutput(t *testing.T) {
	spec := loadTestSpec(t)
	dir := t.TempDir()
	bin := filepath.Join(dir, "rootbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for trace, defs := range map[string][]metricDef{"0": spec.EndToEnd, "1": spec.PerLayer} {
		cmd := exec.Command(bin, "--workload", "flood_hot", "--seed", "5", "--seconds", "0.1", "--trace", trace,
			"-smoke", "-spec", specFile, "-out", filepath.Join(dir, "out"))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("--trace %s: %v\n%s", trace, err, out)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var got struct {
			Correct   *bool             `json:"correct"`
			Attempted *int64            `json:"attempted"`
			Failed    *int64            `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("--trace %s: last line %q: %v", trace, lines[len(lines)-1], err)
		}
		if got.Correct == nil || !*got.Correct || got.Attempted == nil || *got.Attempted < 1 || got.Failed == nil || *got.Failed != 0 {
			t.Errorf("--trace %s: %s", trace, lines[len(lines)-1])
		}
		if len(got.Metrics) != len(defs) {
			t.Errorf("--trace %s: %d metrics, want %d", trace, len(got.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := got.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("--trace %s: metric %s = %+v (present %v), want unit %s", trace, d.Name, m, ok, d.Unit)
			}
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "out", "results.json")); err != nil {
		t.Error(err)
	}
}
