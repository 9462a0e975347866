package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/rootevent/anycastddos/cmd/internal/selfexec"
	"github.com/rootevent/anycastddos/internal/campaign"
	"github.com/rootevent/anycastddos/internal/core"
)

func TestMain(m *testing.M) { selfexec.Main(m, main) }

func quietLog(t *testing.T) {
	t.Helper()
	log.SetOutput(io.Discard)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
}

// smallSpec is a two-scenario grid small enough to run for real.
const smallSpec = `{
  "name": "cmd-test", "vps": 30, "minutes": 90,
  "topology": {"tier1s": 4, "tier2s": 24, "stubs": 160},
  "axes": {"defenses": ["absorb"], "seeds": [1, 2]}
}`

// scenarioFiles lays the grid's scenario.json files out the way the runner
// does and returns their paths and scenarios.
func scenarioFiles(t *testing.T, specJSON string) ([]string, []campaign.Scenario) {
	t.Helper()
	spec, err := campaign.ParseSpec([]byte(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var paths []string
	scenarios := spec.Expand()
	for _, sc := range scenarios {
		scDir := filepath.Join(dir, "scenarios", sc.ID)
		if err := os.MkdirAll(scDir, 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(sc)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(scDir, campaign.ScenarioFileName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	return paths, scenarios
}

func TestRunnerModeNeedsSpecAndDir(t *testing.T) {
	quietLog(t)
	for _, args := range [][]string{
		nil, {"-spec", "grid.json"}, {"-dir", t.TempDir()},
		{"-no-such-flag"}, {"-spec", "grid.json", "-dir", t.TempDir(), "-parallel", "abc"},
	} {
		if code := run(args, strings.NewReader(""), io.Discard); code != core.ExitUsage {
			t.Errorf("run(%q) = %d, want ExitUsage (%d)", args, code, core.ExitUsage)
		}
	}
	if code := run([]string{"-h"}, strings.NewReader(""), io.Discard); code != core.ExitOK {
		t.Errorf("run(-h) = %d, want ExitOK", code)
	}
	// An unreadable spec is a failure of the run, an unparsable one a usage error.
	if code := run([]string{"-spec", filepath.Join(t.TempDir(), "absent.json"), "-dir", t.TempDir()}, nil, io.Discard); code != core.ExitFailure {
		t.Errorf("missing spec file: exit %d, want ExitFailure", code)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(bad, []byte(`{"axes": {"defenses": ["surrender"]}}`), 0o644)
	if code := run([]string{"-spec", bad, "-dir", t.TempDir()}, nil, io.Discard); code != core.ExitUsage {
		t.Errorf("invalid spec: exit %d, want ExitUsage", code)
	}
}

// TestWorkerModeRejectsBadScenarioFiles: a scenario file that cannot be
// read or parsed ends the worker with ExitFailure and no outcome file.
func TestWorkerModeRejectsBadScenarioFiles(t *testing.T) {
	dir := t.TempDir()
	garbled := filepath.Join(dir, campaign.ScenarioFileName)
	os.WriteFile(garbled, []byte(`{"id": "s000", "minutes": "many"`), 0o644)
	for name, path := range map[string]string{"unreadable": filepath.Join(dir, "absent", campaign.ScenarioFileName), "unparsable": garbled} {
		var out bytes.Buffer
		if code := run([]string{"-exec-scenario", path}, strings.NewReader(""), &out); code != core.ExitFailure {
			t.Errorf("%s scenario file: exit %d, want ExitFailure\n%s", name, code, out.Bytes())
		}
		if _, err := os.Stat(filepath.Join(filepath.Dir(path), campaign.OutcomeFileName)); err == nil {
			t.Errorf("%s scenario file left an outcome behind", name)
		}
		if !strings.Contains(out.String(), "scenario: ") {
			t.Errorf("%s scenario file: no reason printed: %q", name, out.Bytes())
		}
	}
	// The same through the line protocol: the bad line ends the worker.
	var out bytes.Buffer
	if code := run([]string{"-exec-scenario", "-"}, strings.NewReader(garbled+"\n"), &out); code != core.ExitFailure {
		t.Errorf("unparsable scenario on stdin: exit %d, want ExitFailure", code)
	}
}

// TestWorkerModeServesStdinUntilEOF: `-exec-scenario -` runs each scenario
// path it reads, answers "<id> done" once its outcome is on disk, and exits
// 0 when the paths run out; `-exec-scenario FILE` is the same for one file.
func TestWorkerModeServesStdinUntilEOF(t *testing.T) {
	if testing.Short() {
		t.Skip("engine runs")
	}
	paths, scenarios := scenarioFiles(t, smallSpec)
	var out bytes.Buffer
	if code := run([]string{"-exec-scenario", "-"}, strings.NewReader(strings.Join(paths, "\n")+"\n"), &out); code != core.ExitOK {
		t.Fatalf("exit %d, want 0\n%s", code, out.Bytes())
	}
	var dones []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		if strings.HasSuffix(line, " done") {
			dones = append(dones, line)
		}
	}
	if want := []string{scenarios[0].ID + " done", scenarios[1].ID + " done"}; fmt.Sprint(dones) != fmt.Sprint(want) {
		t.Errorf("done reports %q, want %q", dones, want)
	}
	var outcomes [][]byte
	for _, p := range paths {
		b, err := os.ReadFile(filepath.Join(filepath.Dir(p), campaign.OutcomeFileName))
		if err != nil {
			t.Fatal(err)
		}
		outcomes = append(outcomes, b)
	}

	// One file, named on the command line: same outcome bytes.
	again, _ := scenarioFiles(t, smallSpec)
	out.Reset()
	if code := run([]string{"-exec-scenario", again[0]}, strings.NewReader(""), &out); code != core.ExitOK {
		t.Fatalf("one-file mode: exit %d\n%s", code, out.Bytes())
	}
	b, err := os.ReadFile(filepath.Join(filepath.Dir(again[0]), campaign.OutcomeFileName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, outcomes[0]) {
		t.Errorf("one-file mode outcome differs from the served one:\n%s\n%s", b, outcomes[0])
	}
}

// TestChaosFiresAtItsMinute: the scripted-chaos check runs on every progress
// event, not only the ones that become heartbeats, so a panic scripted for
// minute 37 interrupts the run after exactly 36 completed minutes.
func TestChaosFiresAtItsMinute(t *testing.T) {
	spec, err := campaign.ParseSpec([]byte(strings.Replace(smallSpec, `"axes"`,
		`"chaos": [{"scenario": 0, "kind": "panic", "minute": 37}], "axes"`, 1)))
	if err != nil {
		t.Fatal(err)
	}
	sc := spec.Expand()[0]
	events := 0
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "minute 37") {
			t.Errorf("recovered %v, want the scripted panic of minute 37", r)
		}
		if events != 36 {
			t.Errorf("%d progress events reached the heartbeat before the panic, want 36", events)
		}
	}()
	runScenario(&sc, func(string, int, int) { events++ })
	t.Error("scenario with a scripted panic ran to completion")
}

func TestDiffExitCodes(t *testing.T) {
	quietLog(t)
	dir := t.TempDir()
	write := func(name string, changes int) string {
		rep := &campaign.Report{
			Name: "grid", SpecDigest: "d", GridSize: 1,
			Scenarios: []campaign.ScenarioResult{{ID: "s0", Status: campaign.StatusCompleted, Outcome: json.RawMessage(`{"route_changes":1}`)}},
			Aggregate: &campaign.Aggregate{TotalRouteChanges: changes},
		}
		path := filepath.Join(dir, name)
		if err := campaign.WriteReport(path, rep); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, different := write("a.json", 1), write("same.json", 1), write("different.json", 2)
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"diff", a, same}, core.ExitOK},
		{[]string{"diff", a, different}, core.ExitFailure},
		{[]string{"diff", a, filepath.Join(dir, "absent.json")}, core.ExitUsage},
		{[]string{"diff", a}, core.ExitUsage},
	} {
		var out bytes.Buffer
		if code := run(tc.args, nil, &out); code != tc.want {
			t.Errorf("run(%q) = %d, want %d\n%s", tc.args[1:], code, tc.want, out.Bytes())
		}
		if tc.want == core.ExitFailure && !strings.Contains(out.String(), "total_route_changes") {
			t.Errorf("differing reports rendered as %q", out.Bytes())
		}
	}
}

// soakSpec writes the 4-scenario grid the smoke and resume tests sweep:
// small enough to finish in seconds, big enough for progress between
// kills. extra is spliced in as further top-level keys.
func soakSpec(t *testing.T, extra string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	spec := `{"name": "soak", "vps": 80, "minutes": 120,
  "topology": {"tier1s": 4, "tier2s": 24, "stubs": 160},` + extra + `
  "axes": {"defenses": ["absorb"], "seeds": [1, 2, 3, 4]}}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// sweepArgs is the runner command line every soak invocation shares.
func sweepArgs(spec, dir string, extra ...string) []string {
	return append([]string{"-spec", spec, "-dir", dir, "-parallel", "2",
		"-timeout", "2m", "-stall-timeout", "10s", "-retries", "2"}, extra...)
}

// sweep runs the runner in process to completion and returns its
// campaign.json. Its workers are this test binary re-executed as the
// command.
func sweep(t *testing.T, spec, dir string, extra ...string) []byte {
	t.Helper()
	t.Setenv(selfexec.Env, "1")
	if code := run(sweepArgs(spec, dir, extra...), nil, io.Discard); code != core.ExitOK {
		t.Fatalf("campaign %q exits %d", extra, code)
	}
	data, err := os.ReadFile(filepath.Join(dir, campaign.ReportFileName))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCampaignSmoke is the degraded-mode guarantee: a grid with one
// scripted panic and one scripted stall exits 0, quarantines both with
// the right class, and completes the clean scenarios.
func TestCampaignSmoke(t *testing.T) {
	quietLog(t)
	spec := soakSpec(t, `
  "chaos": [{"scenario": 2, "kind": "panic", "minute": 20}, {"scenario": 3, "kind": "stall", "minute": 20}],`)
	var rep campaign.Report
	if err := json.Unmarshal(sweep(t, spec, t.TempDir(), "-stall-timeout", "5s"), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.GridSize != 4 || rep.Completed != 2 || rep.Quarantined != 2 || rep.Pending != 0 || rep.Aggregate == nil {
		t.Fatalf("report grid=%d completed=%d quarantined=%d pending=%d aggregate=%v, want 4/2/2/0 with an aggregate",
			rep.GridSize, rep.Completed, rep.Quarantined, rep.Pending, rep.Aggregate != nil)
	}
	wantClass := map[int]string{2: "panic", 3: "stall"}
	for _, sr := range rep.Scenarios {
		if want, chaotic := wantClass[sr.Index]; chaotic {
			if sr.Status != campaign.StatusQuarantined || sr.FailureClass != want {
				t.Errorf("scenario %d: %s/%q, want quarantined/%s", sr.Index, sr.Status, sr.FailureClass, want)
			}
		} else if sr.Status != campaign.StatusCompleted || len(sr.Outcome) == 0 {
			t.Errorf("clean scenario %d: %s with %d outcome bytes", sr.Index, sr.Status, len(sr.Outcome))
		}
	}
}

// TestCampaignResume is crash recovery one level up: the runner is
// SIGKILLed after 1, 2 and 3 of the 4 scenarios are terminal and resumed
// each time; the final campaign.json must equal an
// uninterrupted sweep's byte for byte, and no finished scenario may run
// again.
func TestCampaignResume(t *testing.T) {
	quietLog(t)
	spec := soakSpec(t, "")
	golden := sweep(t, spec, t.TempDir())
	dir := t.TempDir()
	ledgerPath := filepath.Join(dir, campaign.LedgerFileName)
	for k := 1; k <= 3; k++ {
		args := sweepArgs(spec, dir)
		if k > 1 {
			args = append(args, "-resume")
		}
		child := selfexec.Start(t, args...)
		// Reading the ledger the live runner appends to is safe: a torn
		// tail just ends the prefix.
		if child.Until(t, func() bool {
			recs, _ := campaign.ReadRecords(ledgerPath)
			terminal := 0
			for _, r := range recs {
				if r.Type == campaign.RecDone || r.Type == campaign.RecQuarantine {
					terminal++
				}
			}
			return terminal >= k
		}) {
			// SIGKILL the runner alone, as the OOM killer would: its
			// workers live on until their stdin closes, and may still
			// write outcomes while the next runner starts.
			if err := child.Process.Kill(); err != nil {
				t.Fatal(err)
			}
			<-child.Exited
			t.Logf("SIGKILLed the runner after %d terminal scenarios", k)
		} else {
			t.Logf("the runner finished before %d terminal scenarios", k)
		}
	}
	if resumed := sweep(t, spec, dir, "-resume"); !bytes.Equal(resumed, golden) {
		t.Fatalf("resumed campaign.json differs from the uninterrupted one:\n%s\n%s", resumed, golden)
	}
	// Outcomes are deterministic, so campaign.json cannot show a finished
	// scenario run twice; the ledger can.
	recs, err := campaign.ReadRecords(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	done := map[string]bool{}
	for _, r := range recs {
		if r.Type == campaign.RecStart && done[r.Scenario] {
			t.Errorf("scenario %s started again after it was done", r.Scenario)
		}
		done[r.Scenario] = done[r.Scenario] || r.Type == campaign.RecDone
	}
}
