package main

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/rootevent/anycastddos/cmd/internal/selfexec"
	"github.com/rootevent/anycastddos/internal/analysis"
	"github.com/rootevent/anycastddos/internal/campaign"
	"github.com/rootevent/anycastddos/internal/checkpoint"
	"github.com/rootevent/anycastddos/internal/core"
)

func TestMain(m *testing.M) { selfexec.Main(m, main) }

func quietLog(t *testing.T) {
	t.Helper()
	log.SetOutput(io.Discard)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
}

// checkProfile fails unless path holds a complete pprof profile: a gzip
// stream that decompresses to its end into a non-empty protobuf.
func checkProfile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("%s (%d bytes) is not a gzip stream: %v", path, len(data), err)
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("%s is truncated: %v", path, err)
	}
	if len(body) == 0 {
		t.Fatalf("%s decompresses to nothing", path)
	}
}

// TestShortHorizonRunsPerEventFigures is `rootevent -small -minutes 1440`:
// the horizon ends before the Dec 1 event, so the per-event outputs cover
// the one simulated event instead of dying on the other, and the CPU
// profile is complete.
func TestShortHorizonRunsPerEventFigures(t *testing.T) {
	quietLog(t)
	dir := t.TempDir()
	prof := filepath.Join(dir, "p.out")
	err := run([]string{"-small", "-minutes", "1440", "-only", "table3,fig10,fig11", "-out", dir, "-cpuprofile", prof})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	fig10, err := os.ReadFile(filepath.Join(dir, "fig10.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(fig10), "Event 1:") || strings.Contains(string(fig10), "Event 2:") {
		t.Errorf("fig10 should report event 1 only:\n%s", fig10)
	}
	fig11, err := os.ReadFile(filepath.Join(dir, "fig11.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(fig11), "event 1 behaviour groups") || strings.Contains(string(fig11), "event 2 behaviour groups") {
		t.Errorf("fig11 should classify event 1 only:\n%.400s", fig11)
	}
	checkProfile(t, prof)
}

// TestFailedRunFlushesProfile: a run that fails after profiling started
// returns its error to main with the CPU profile stopped and closed, where
// log.Fatal used to leave a 0-byte file.
func TestFailedRunFlushesProfile(t *testing.T) {
	quietLog(t)
	dir := t.TempDir()
	prof, heap := filepath.Join(dir, "p.out"), filepath.Join(dir, "heap.out")
	err := run([]string{"-schedule", "bogus", "-out", dir, "-cpuprofile", prof, "-memprofile", heap})
	if err == nil || !strings.Contains(err.Error(), "unknown -schedule") {
		t.Fatalf("run = %v, want the unknown-schedule error", err)
	}
	checkProfile(t, prof)
	checkProfile(t, heap)
}

// TestRejectedFlagsExitUsage: a command line the flag package rejects, or
// a flag value run rejects, exits ExitUsage, not the ExitPanic a parent
// supervisor would retry, and -h exits ExitOK; none starts a run. A value
// run rejects comes back as one line naming its flag, for main to print.
func TestRejectedFlagsExitUsage(t *testing.T) {
	quietLog(t)
	for _, tc := range []struct {
		args []string
		want int
		flag string // named in run's error when run rejects the value
	}{
		{[]string{"-no-such-flag"}, core.ExitUsage, ""},
		{[]string{"-vps=abc"}, core.ExitUsage, ""},
		{[]string{"-small", "-minutes", "1e3"}, core.ExitUsage, ""},
		{[]string{"-supervise"}, core.ExitUsage, ""},
		{[]string{"-checkpoint", "d", "-supervise"}, core.ExitUsage, ""},
		{[]string{"-h"}, core.ExitOK, ""},
		{[]string{"-schedule", "bogus"}, core.ExitUsage, "-schedule"},
		{[]string{"-small", "-faults", "garbage"}, core.ExitUsage, "-faults"},
		{[]string{"-small", "-resume"}, core.ExitUsage, "-resume"},
		{[]string{"-vps", "-5"}, core.ExitUsage, "-vps"},
		{[]string{"-small", "-minutes", "-3"}, core.ExitUsage, "-minutes"},
		{[]string{"-vps", "0"}, core.ExitUsage, "-vps"},
		{[]string{"-small", "-only", "bogus"}, core.ExitUsage, "bogus"},
		{[]string{"-small", "-only", "fig3,bogus"}, core.ExitUsage, "bogus"},
	} {
		err := run(append(tc.args, "-out", t.TempDir()))
		if code := exitCode(err); code != tc.want {
			t.Errorf("run(%q) exits %d, want %d", tc.args, code, tc.want)
		}
		if tc.flag == "" {
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, tc.flag) || strings.Contains(msg, "\n") {
			t.Errorf("run(%q) error %q: want one line naming %s", tc.args, msg, tc.flag)
		}
	}
}

// simulateScenario builds and runs sc's engine without measuring it.
func simulateScenario(t *testing.T, sc campaign.Scenario) *core.Evaluator {
	t.Helper()
	cfg, opts, err := sc.EngineConfig()
	if err != nil {
		t.Fatal(err)
	}
	ev, err := core.NewEvaluator(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Run(); err != nil {
		t.Fatal(err)
	}
	return ev
}

// TestPolicyAblation: the ablation's rows of one scenario score as the §2.2
// trade-off predicts, and its as-deployed row, taken from the main run at
// 300 VPs, equals a fresh run at the ablation's own 50 VPs.
func TestPolicyAblation(t *testing.T) {
	sc := campaign.Scenario{
		Schedule: "nov2015", Intensity: 1, DurationScale: 1, Target: "paper",
		Defense: "default", Seed: 31, VPs: 300, BotnetOrigins: 30,
		Topology: &campaign.TopologySpec{Tier1s: 6, Tier2s: 60, Stubs: 700},
	}
	rows, err := policyAblation(sc, simulateScenario(t, sc))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 || rows[3].Policy != "all-adaptive" {
		t.Fatalf("rows = %+v, want the mix, all-absorb, all-withdraw and all-adaptive", rows)
	}
	sc.VPs = 50
	fresh, err := analysis.ScorePolicy("as-deployed mix", simulateScenario(t, sc))
	if err != nil {
		t.Fatal(err)
	}
	if rows[0] != fresh {
		t.Errorf("reused as-deployed row %+v, fresh 50-VP run %+v", rows[0], fresh)
	}
	byName := map[string]analysis.PolicyAblationRow{}
	for _, r := range rows {
		byName[r.Policy] = r
		if r.ServedLegitFrac <= 0 || r.ServedLegitFrac > 1 {
			t.Errorf("%s served frac = %v", r.Policy, r.ServedLegitFrac)
		}
		if r.WorstMinuteFrac > r.ServedLegitFrac+1e-9 {
			t.Errorf("%s worst %v above mean %v", r.Policy, r.WorstMinuteFrac, r.ServedLegitFrac)
		}
	}
	// All-absorb makes no route changes; all-withdraw churns the most.
	if byName["all-absorb"].RouteChangeCount != 0 {
		t.Errorf("all-absorb route changes = %d", byName["all-absorb"].RouteChangeCount)
	}
	if byName["all-withdraw"].RouteChangeCount <= byName["as-deployed mix"].RouteChangeCount {
		t.Errorf("all-withdraw churn %d <= mix %d",
			byName["all-withdraw"].RouteChangeCount, byName["as-deployed mix"].RouteChangeCount)
	}
	// The deployed mix should be competitive with the best pure policy —
	// operators chose their policies for a reason.
	best := byName["all-absorb"].ServedLegitFrac
	if byName["all-withdraw"].ServedLegitFrac > best {
		best = byName["all-withdraw"].ServedLegitFrac
	}
	if byName["as-deployed mix"].ServedLegitFrac < best-0.25 {
		t.Errorf("mix %v far below best pure policy %v",
			byName["as-deployed mix"].ServedLegitFrac, best)
	}
	t.Logf("ablation: %+v", rows)
}

// TestAblationFollowsScenario: the ablation scores the run's own scenario,
// so -schedule reaches its re-runs. The default table is the Nov 2015 one,
// byte for byte, and without its all-adaptive row it is the three-row table
// of the ablation before the adaptive controller joined it.
func TestAblationFollowsScenario(t *testing.T) {
	quietLog(t)
	ablation := func(extra ...string) string {
		t.Helper()
		dir := t.TempDir()
		if err := run(append([]string{"-small", "-seed", "7", "-only", "ablation", "-out", dir}, extra...)); err != nil {
			t.Fatalf("run(%q): %v", extra, err)
		}
		data, err := os.ReadFile(filepath.Join(dir, "ablation.txt"))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	const (
		nov2015       = "b80f47ce7a02d7990d78498b7dad38bf6b03da7221a4cbd41c14cb24772e9fa9"
		threePolicies = "018622de9d03f9574e2a218410db1299fcc742fd1572f24e5359c58a5fba5c52"
	)
	table := ablation()
	if sum := sha256.Sum256([]byte(table)); hex.EncodeToString(sum[:]) != nov2015 {
		t.Errorf("default ablation.txt sha256 = %x, want %s", sum, nov2015)
	}
	var kept []string
	for _, line := range strings.SplitAfter(table, "\n") {
		if !strings.HasPrefix(line, "all-adaptive ") {
			kept = append(kept, line)
		}
	}
	if sum := sha256.Sum256([]byte(strings.Join(kept, ""))); hex.EncodeToString(sum[:]) != threePolicies {
		t.Errorf("ablation.txt without all-adaptive: sha256 = %x, want %s", sum, threePolicies)
	}
	june := ablation("-schedule", "june2016")
	var mix string
	for _, line := range strings.Split(june, "\n") {
		if strings.HasPrefix(line, "as-deployed mix") {
			mix = line
		}
	}
	if f := strings.Fields(mix); len(f) != 5 || f[2] != "64.2%" || f[4] != "3049" {
		t.Errorf("june2016 as-deployed row = %q, want 64.2%% served and 3049 updates", mix)
	}
}

// runLogged runs the command with args and returns its log output.
func runLogged(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	log.SetOutput(&buf)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	if err := run(args); err != nil {
		t.Fatalf("run(%q): %v\n%s", args, err, buf.String())
	}
	return buf.String()
}

// TestSelectionRunsOnlyNeededStages: the stage log shows that -only fig2
// builds no evaluator, that the run-level -only ablation simulates but runs
// no Measure, and that -only none with -hashfile runs both and writes only
// the digest.
func TestSelectionRunsOnlyNeededStages(t *testing.T) {
	const build, simulate, measure = "building evaluator", "simulating the two event days", "running the Atlas measurement campaign"
	for _, tc := range []struct {
		only      string
		hashfile  bool
		want, not []string
	}{
		{"fig2", false, nil, []string{build, simulate, measure}},
		{"ablation", false, []string{build, simulate}, []string{measure}},
		{"none", true, []string{build, simulate, measure}, nil},
	} {
		dir := t.TempDir()
		args := []string{"-small", "-seed", "7", "-only", tc.only, "-out", dir}
		if tc.hashfile {
			args = append(args, "-hashfile", filepath.Join(t.TempDir(), "hash"))
		}
		out := runLogged(t, args...)
		for _, line := range tc.want {
			if !strings.Contains(out, line) {
				t.Errorf("-only %s: log lacks %q:\n%s", tc.only, line, out)
			}
		}
		for _, line := range tc.not {
			if strings.Contains(out, line) {
				t.Errorf("-only %s: log has %q:\n%s", tc.only, line, out)
			}
		}
		if files, _ := os.ReadDir(dir); tc.only == "none" && len(files) != 0 {
			t.Errorf("-only none wrote %d files", len(files))
		}
	}
}

// TestSelectionMatchesFullRun: a run selecting exactly one stage's keys
// writes files byte-identical to the same files of a full run.
func TestSelectionMatchesFullRun(t *testing.T) {
	quietLog(t)
	full := t.TempDir()
	if err := run([]string{"-small", "-seed", "7", "-out", full}); err != nil {
		t.Fatal(err)
	}
	for _, level := range []need{needNone, needRun, needMeasure} {
		var keys []string
		for _, e := range experiments {
			if e.needs == level {
				keys = append(keys, e.key)
			}
		}
		dir := t.TempDir()
		if err := run([]string{"-small", "-seed", "7", "-only", strings.Join(keys, ","), "-out", dir}); err != nil {
			t.Fatalf("level %d: %v", level, err)
		}
		n := 0
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			rel, _ := filepath.Rel(dir, path)
			got, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			want, err := os.ReadFile(filepath.Join(full, rel))
			if err != nil {
				return err
			}
			if !bytes.Equal(got, want) {
				t.Errorf("level %d: %s differs from the full run's", level, rel)
			}
			n++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if n < len(keys) {
			t.Errorf("level %d wrote %d files for %d keys", level, n, len(keys))
		}
	}
}

// TestGoldenOutputs regenerates the default run — `make reproduce` without
// its -save archive — and requires it to equal the tracked out/ directory,
// file for file and byte for byte. A file that differs is reported with its
// first differing line, which names the number that moved.
func TestGoldenOutputs(t *testing.T) {
	quietLog(t)
	dir := t.TempDir()
	if err := run([]string{"-out", dir}); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("..", "..", "out")
	want, got := outputFiles(t, golden), outputFiles(t, dir)
	delete(want, "dataset.bin") // make reproduce's archive; not tracked
	for rel := range got {
		if _, ok := want[rel]; !ok {
			t.Errorf("the run writes %s, which out/ lacks", rel)
		}
	}
	for rel := range want {
		if _, ok := got[rel]; !ok {
			t.Errorf("out/%s: the run no longer writes it", rel)
			continue
		}
		g, err := os.ReadFile(filepath.Join(dir, rel))
		if err != nil {
			t.Fatal(err)
		}
		w, err := os.ReadFile(filepath.Join(golden, rel))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Errorf("out/%s differs: %s", rel, firstDiff(w, g))
		}
	}
	if len(want) < 40 {
		t.Errorf("out/ holds %d files, want the full default output", len(want))
	}
}

// outputFiles lists the regular files under root, relative to it.
func outputFiles(t *testing.T, root string) map[string]bool {
	t.Helper()
	files := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, path)
		files[filepath.ToSlash(rel)] = true
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// firstDiff describes the first line at which got departs from want.
func firstDiff(want, got []byte) string {
	wl, gl := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g || i >= len(wl) || i >= len(gl) {
			return fmt.Sprintf("line %d: golden %q, run %q", i+1, w, g)
		}
	}
	return "same lines, different bytes"
}

// TestKillResume is crash recovery through real process death: a
// checkpointing child is SIGKILLed past each kill minute and resumed each
// time, and the final resume's dataset hash must equal an uninterrupted
// run's. The last kill falls inside event 1 (minutes 410–570), so the
// final resume folds a record whose minutes carry loss. Add kill minutes
// or raise minutes to soak longer.
func TestKillResume(t *testing.T) {
	const seed, minutes = 7, 720
	killMinutes := []int{150, 280, 450}
	quietLog(t)
	dir := t.TempDir()
	common := []string{"-small", "-seed", strconv.Itoa(seed), "-minutes", strconv.Itoa(minutes),
		"-workers", "4", "-only", "none", "-out", filepath.Join(dir, "out")}
	golden := filepath.Join(dir, "golden.hash")
	if err := run(append(common, "-hashfile", golden)); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(dir, "ckpt")
	resume := append(common, "-checkpoint", ckpt, "-resume")
	for _, target := range killMinutes {
		child := selfexec.Start(t, resume...)
		if child.Until(t, func() bool {
			m, err := checkpoint.LatestMinute(ckpt)
			return err == nil && m >= target
		}) {
			child.Kill()
			m, _ := checkpoint.LatestMinute(ckpt)
			t.Logf("SIGKILLed the child past minute %d (newest snapshot: minute %d)", target, m)
		} else {
			t.Logf("the child finished before minute %d", target)
		}
	}
	resumed := filepath.Join(dir, "resumed.hash")
	if err := run(append(resume, "-hashfile", resumed)); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(resumed); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("resumed dataset hash %q (%v), want the uninterrupted run's %q", got, err, want)
	}
}
