package campaign

// The worker contract, failure by failure, from both ends of the pipe.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/rootevent/anycastddos/internal/analysis"
	"github.com/rootevent/anycastddos/internal/core"
)

// ledgerTrail renders a campaign ledger as one "type scenario-index
// attempt class" line per record — what the runner decided, without the
// wall-clock-flavoured detail strings.
func ledgerTrail(t *testing.T, rc RunnerConfig, scenarios []Scenario) string {
	t.Helper()
	recs, err := ReadRecords(filepath.Join(rc.Dir, LedgerFileName))
	if err != nil {
		t.Fatal(err)
	}
	index := map[string]int{}
	for _, sc := range scenarios {
		index[sc.ID] = sc.Index
	}
	var b strings.Builder
	for _, r := range recs {
		if r.Type == RecSpec {
			b.WriteString("spec\n")
			continue
		}
		fmt.Fprintf(&b, "%s\n", strings.TrimSpace(fmt.Sprintf("%s s%d a%d %s", r.Type, index[r.Scenario], r.Attempt, r.Class)))
	}
	return b.String()
}

// oneShotTrail is the ledger the process-per-scenario runner of the parent
// commit wrote for the script of TestWorkerFailureCostsOneAttempt (four
// scenarios, one slot, the third misbehaving on its first attempt only):
// recorded there with the same fake child and the same hooks, class
// substituted per case. The worker pool must decide every record the same.
const oneShotTrail = `spec
start s0 a0
done s0 a0
start s1 a0
done s1 a0
start s2 a0
fail s2 a0 %s
start s2 a1
done s2 a0
start s3 a0
done s3 a0
`

func readPid(t *testing.T, rc RunnerConfig, sc Scenario) int {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(rc.Dir, "scenarios", sc.ID, pidFileName))
	if err != nil {
		t.Fatal(err)
	}
	pid, err := strconv.Atoi(string(b))
	if err != nil {
		t.Fatal(err)
	}
	return pid
}

// TestWorkerFailureCostsOneAttempt: a worker whose third scenario panics,
// stalls, exits 7 or is SIGKILLed from outside loses exactly that attempt
// to the matching class. The two scenarios before it stay done — and ran in
// one process, which is the point of a worker — the retry and the scenario
// after it complete on a fresh worker, and the ledger reads record for
// record like the one-shot runner's.
func TestWorkerFailureCostsOneAttempt(t *testing.T) {
	for kind, class := range map[string]string{
		"panic": ClassPanic, "stall": ClassStall, "exit": "exit:7", "linger": ClassSignal,
	} {
		t.Run(kind, func(t *testing.T) {
			spec := testSpec(t, 4, nil)
			scenarios := spec.Expand()
			rc := testRunnerConfig(t)
			rc.Parallel = 1
			rc.StallTimeout = 500 * time.Millisecond
			third := scenarios[2]
			t.Setenv(envOnce, third.ID+"="+kind)
			if kind == "linger" {
				// The outside world's SIGKILL: as soon as the lingering
				// worker has said which process it is.
				stop := make(chan struct{})
				defer close(stop)
				go func() {
					pidFile := filepath.Join(rc.Dir, "scenarios", third.ID, pidFileName)
					for {
						select {
						case <-stop:
							return
						case <-time.After(2 * time.Millisecond):
						}
						if _, err := os.Stat(filepath.Join(filepath.Dir(pidFile), "once-fired")); err != nil {
							continue
						}
						if b, err := os.ReadFile(pidFile); err == nil {
							if pid, err := strconv.Atoi(string(b)); err == nil {
								syscall.Kill(pid, syscall.SIGKILL)
								return
							}
						}
					}
				}()
			}
			rep, err := Run(context.Background(), spec, rc)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Completed != 4 || rep.Quarantined != 0 {
				t.Fatalf("completed=%d quarantined=%d, want 4/0", rep.Completed, rep.Quarantined)
			}
			if got, want := ledgerTrail(t, rc, scenarios), fmt.Sprintf(oneShotTrail, class); got != want {
				t.Errorf("ledger trail:\n%swant the one-shot runner's:\n%s", got, want)
			}
			before, after := readPid(t, rc, scenarios[0]), readPid(t, rc, scenarios[3])
			if p := readPid(t, rc, scenarios[1]); p != before {
				t.Errorf("scenarios 0 and 1 ran in processes %d and %d: the worker did not persist", before, p)
			}
			if p := readPid(t, rc, third); p != after || after == before {
				t.Errorf("processes: before the failure %d, retry %d, next scenario %d: want one fresh worker for the last two", before, p, after)
			}
		})
	}
}

// TestRunCanceledLeavesNoWorker: canceling the runner while both slots are
// mid-scenario ends both workers and every goroutine the pool started
// before Run returns.
func TestRunCanceledLeavesNoWorker(t *testing.T) {
	spec := testSpec(t, 2, nil)
	scenarios := spec.Expand()
	rc := testRunnerConfig(t)
	t.Setenv(envSlow, "*")
	goroutines := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		// Cancel once both workers have started their scenario.
		for _, sc := range scenarios {
			for {
				if _, err := os.Stat(filepath.Join(rc.Dir, "scenarios", sc.ID, pidFileName)); err == nil {
					break
				}
				select {
				case <-ctx.Done():
					return
				case <-time.After(2 * time.Millisecond):
				}
			}
		}
		cancel()
	}()
	start := time.Now()
	if _, err := Run(ctx, spec, rc); err == nil {
		t.Fatal("canceled campaign returned no error")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("Run took %v to return after the cancel", d)
	}
	for _, sc := range scenarios {
		// Reaped, not merely signaled: the pid no longer names a process
		// (or names a zombie of ours, which Wait would have collected).
		if pid := readPid(t, rc, sc); syscall.Kill(pid, 0) == nil {
			t.Errorf("worker %d of %s is still there after Run returned", pid, sc.ID)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines before Run, %d after", goroutines, n)
	}
}

// writeScenario puts sc's scenario.json where the runner would and returns
// its path.
func writeScenario(t *testing.T, dir string, sc Scenario) string {
	t.Helper()
	scDir := filepath.Join(dir, "scenarios", sc.ID)
	if err := os.MkdirAll(scDir, 0o755); err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(scDir, ScenarioFileName)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestWorkerExitsCleanlyAtEOF drives a real worker process by hand: it
// answers a scenario, and when its stdin closes it exits 0 leaving a
// complete outcome and nothing half-written; a worker given no work at all
// exits 0 having written nothing.
func TestWorkerExitsCleanlyAtEOF(t *testing.T) {
	dir := t.TempDir()
	t.Setenv(envDir, dir)
	sc := testSpec(t, 1, nil).Expand()[0]
	path := writeScenario(t, dir, sc)

	cmd := exec.Command(os.Args[0], childFlag, ServeStdin)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	io.WriteString(stdin, path+"\n")
	lines := bufio.NewScanner(stdout)
	answered := false
	for lines.Scan() {
		if lines.Text() == sc.ID+doneSuffix {
			answered = true
			break
		}
	}
	if !answered {
		t.Fatal("worker never reported the scenario done")
	}
	stdin.Close()
	for lines.Scan() { // drain to EOF before Wait, as StdoutPipe requires
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("worker at EOF: %v, want exit 0", err)
	}
	if _, err := readOutcome(filepath.Join(filepath.Dir(path), OutcomeFileName)); err != nil {
		t.Error(err)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		switch e.Name() {
		case ScenarioFileName, OutcomeFileName, pidFileName:
		default:
			t.Errorf("worker left %s behind", e.Name())
		}
	}

	idle := exec.Command(os.Args[0], childFlag, ServeStdin)
	idle.Stdin = strings.NewReader("")
	if out, err := idle.CombinedOutput(); err != nil || len(out) != 0 {
		t.Errorf("worker with nothing to do: %v, output %q; want exit 0 in silence", err, out)
	}
}

// liarFlag selects a worker that breaks the protocol's last step: it
// reports scenarios done without having run them.
const liarFlag = "-campaign-liar"

// liarMain answers every scenario path at once: with the wrong id when
// CAMPAIGN_TEST_LIE is "wrong-id", otherwise with the right id but no
// outcome file.
func liarMain() {
	lines := bufio.NewScanner(os.Stdin)
	for lines.Scan() {
		id := filepath.Base(filepath.Dir(lines.Text()))
		if os.Getenv("CAMPAIGN_TEST_LIE") == "wrong-id" {
			id = "s999-somebody-else"
		}
		fmt.Println(id + doneSuffix)
	}
}

// TestWorkerDoneMustBeTrue: "<id> done" is a claim the runner checks. The
// wrong id, or the right id without a parseable outcome file, is a
// bad-outcome failure of that attempt — never a success.
func TestWorkerDoneMustBeTrue(t *testing.T) {
	for _, lie := range []string{"wrong-id", "no-outcome"} {
		t.Run(lie, func(t *testing.T) {
			spec := testSpec(t, 2, nil)
			rc := testRunnerConfig(t)
			rc.BaseArgs = []string{liarFlag}
			t.Setenv("CAMPAIGN_TEST_LIE", lie)
			rep, err := Run(context.Background(), spec, rc)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Completed != 0 || rep.Quarantined != 2 {
				t.Fatalf("completed=%d quarantined=%d, want 0/2", rep.Completed, rep.Quarantined)
			}
			for _, sr := range rep.Scenarios {
				if sr.FailureClass != ClassBadOutcome {
					t.Errorf("%s: class %q, want %q", sr.ID, sr.FailureClass, ClassBadOutcome)
				}
			}
		})
	}
}

// engineScenarios is a small real grid: different seeds, defenses and fault
// plans, so consecutive scenarios leave as different a process behind as a
// campaign's do.
func engineScenarios(t *testing.T) []Scenario {
	t.Helper()
	s := &Spec{
		Name: "isolation", VPs: 40, Minutes: 200,
		Topology: &TopologySpec{Tier1s: 4, Tier2s: 24, Stubs: 160},
		Axes: Axes{
			Defenses: []string{"default", "withdraw"},
			Faults:   []string{"none", "random:3:heavy"},
			Seeds:    []int64{1, 2},
		},
	}
	s.fillDefaults()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s.Expand()
}

func executeScenario(sc *Scenario, beat Beat) (*analysis.Outcome, error) {
	return sc.Execute(func(p core.Progress) { beat(p.Stage, p.Done, p.Total) })
}

// TestWorkerKeepsNothingBetweenScenarios runs A, B, A again through one
// Serve loop with the real engine — so in one process, exactly like a
// worker — and requires the two outcomes of A to be the same bytes, for an
// un-faulted and a faulted A with a B that differs in seed, defense and
// fault plan.
func TestWorkerKeepsNothingBetweenScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("engine runs")
	}
	scenarios := engineScenarios(t)
	byAxes := func(defense, faults string, seed int64) Scenario {
		for _, sc := range scenarios {
			if sc.Defense == defense && sc.Faults == faults && sc.Seed == seed {
				return sc
			}
		}
		t.Fatalf("no scenario %s/%s/%d", defense, faults, seed)
		return Scenario{}
	}
	for name, pair := range map[string][2]Scenario{
		"un-faulted A": {byAxes("default", "none", 1), byAxes("withdraw", "random:3:heavy", 2)},
		"faulted A":    {byAxes("default", "random:3:heavy", 1), byAxes("withdraw", "none", 2)},
	} {
		first, second, again := t.TempDir(), t.TempDir(), t.TempDir()
		paths := []string{writeScenario(t, first, pair[0]), writeScenario(t, second, pair[1]), writeScenario(t, again, pair[0])}
		var out bytes.Buffer
		if code := Serve(strings.NewReader(strings.Join(paths, "\n")+"\n"), &out, executeScenario); code != core.ExitOK {
			t.Fatalf("%s: Serve = %d\n%s", name, code, out.Bytes())
		}
		var outcomes [3][]byte
		for i, p := range paths {
			b, err := os.ReadFile(filepath.Join(filepath.Dir(p), OutcomeFileName))
			if err != nil {
				t.Fatal(err)
			}
			outcomes[i] = b
		}
		if !bytes.Equal(outcomes[0], outcomes[2]) {
			t.Errorf("%s: outcome changed after another scenario ran in the same process:\n%s\n%s", name, outcomes[0], outcomes[2])
		}
		if bytes.Equal(outcomes[0], outcomes[1]) {
			t.Errorf("%s: A and B have the same outcome; the test scenario pair proves nothing", name)
		}
	}
}

// TestHeartbeatsAreThinned: a default-scale scenario (480 minutes, 120
// vantage points: 600 progress events) writes at most 40 lines — first and
// last event of each stage, every 32nd between — and the last is its done
// report.
func TestHeartbeatsAreThinned(t *testing.T) {
	if testing.Short() {
		t.Skip("engine run")
	}
	s := &Spec{Name: "beats"}
	s.fillDefaults()
	sc := s.Expand()[0]
	if sc.Minutes != 480 || sc.VPs != 120 {
		t.Fatalf("grid defaults are %d minutes, %d VPs; this test is about 480/120", sc.Minutes, sc.VPs)
	}
	path := writeScenario(t, t.TempDir(), sc)
	var out bytes.Buffer
	events := 0
	code := Serve(strings.NewReader(path+"\n"), &out, func(sc *Scenario, beat Beat) (*analysis.Outcome, error) {
		return executeScenario(sc, func(stage string, done, total int) {
			events++
			beat(stage, done, total)
		})
	})
	if code != core.ExitOK {
		t.Fatalf("Serve = %d\n%s", code, out.Bytes())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if events != 600 {
		t.Errorf("%d progress events, want 600", events)
	}
	if len(lines) > 40 {
		t.Errorf("%d output lines for %d progress events, want at most 40:\n%s", len(lines), events, out.Bytes())
	}
	if last := lines[len(lines)-1]; last != sc.ID+doneSuffix {
		t.Errorf("last line %q, want %q", last, sc.ID+doneSuffix)
	}
	for _, want := range []string{" run 1/480", " run 480/480", " measure 120/120"} {
		if !strings.Contains(out.String(), sc.ID+want+"\n") {
			t.Errorf("no %q beat in:\n%s", want, out.Bytes())
		}
	}
}
