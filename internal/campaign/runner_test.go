package campaign

// Runner tests re-invoke the test binary as the scenario worker (TestMain
// dispatch): the fake worker is the real Serve loop — scenario paths on
// stdin, heartbeats and "<id> done" on stdout, outcome.json next to the
// scenario, core.Exit* codes — around a ScenarioFunc that fabricates a
// cheap deterministic outcome instead of running the engine, so process
// isolation, classification, retries, quarantine, and resume are all
// exercised quickly and for real.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/rootevent/anycastddos/internal/analysis"
)

const childFlag = "-campaign-child"

// Env hooks steering the fake worker, keyed by scenario ID.
const (
	envFlaky = "CAMPAIGN_TEST_FLAKY_ID" // fail (exit 1) on the first two attempts
	envSlow  = "CAMPAIGN_TEST_SLOW_ID"  // heartbeat forever, never finish ("*": every scenario)
	envBomb  = "CAMPAIGN_TEST_FAIL_ALL" // fail every scenario immediately
	envOnce  = "CAMPAIGN_TEST_ONCE"     // "<id>=<panic|stall|exit|linger>": misbehave on that scenario's first attempt only
	envDir   = "CAMPAIGN_TEST_DIR"      // the campaign directory (the fake keeps per-scenario markers there)
)

// pidFileName is where the fake worker leaves its process id in the
// scenario directory, every attempt: which process ran what is how the
// tests see workers persist and get replaced.
const pidFileName = "worker-pid"

func TestMain(m *testing.M) {
	if len(os.Args) > 2 && os.Args[1] == childFlag && os.Args[2] == ServeStdin {
		os.Exit(Serve(os.Stdin, os.Stdout, fakeScenario))
	}
	if len(os.Args) > 1 && os.Args[1] == liarFlag {
		liarMain()
		return
	}
	os.Exit(m.Run())
}

// fakeScenario is the fake worker's ScenarioFunc.
func fakeScenario(sc *Scenario, beat Beat) (*analysis.Outcome, error) {
	if os.Getenv(envBomb) != "" {
		return nil, errors.New("scripted global failure")
	}
	dir := filepath.Join(os.Getenv(envDir), "scenarios", sc.ID)
	os.WriteFile(filepath.Join(dir, pidFileName), []byte(strconv.Itoa(os.Getpid())), 0o644)
	if id, kind, _ := strings.Cut(os.Getenv(envOnce), "="); id == sc.ID {
		marker := filepath.Join(dir, "once-fired")
		if _, err := os.Stat(marker); err != nil {
			os.WriteFile(marker, nil, 0o644)
			switch kind {
			case "panic":
				panic("scripted one-time panic")
			case "stall":
				for {
					time.Sleep(time.Hour)
				}
			case "exit":
				os.Exit(7)
			case "linger": // alive and beating until someone kills it
				for i := 1; ; i++ {
					beat("linger", i*beatEvery, 0)
					time.Sleep(5 * time.Millisecond)
				}
			}
		}
	}
	if os.Getenv(envFlaky) == sc.ID {
		marker := filepath.Join(dir, "flaky-attempts")
		n := 0
		if b, err := os.ReadFile(marker); err == nil {
			n, _ = strconv.Atoi(strings.TrimSpace(string(b)))
		}
		if n < 2 {
			os.WriteFile(marker, []byte(strconv.Itoa(n+1)), 0o644)
			return nil, fmt.Errorf("flaky failure %d", n)
		}
	}
	if slow := os.Getenv(envSlow); slow == sc.ID || slow == "*" {
		for i := 1; ; i++ {
			beat("slow", i*beatEvery, 0)
			time.Sleep(5 * time.Millisecond)
		}
	}
	if sc.Chaos != nil {
		switch sc.Chaos.Kind {
		case "panic":
			panic("scripted panic")
		case "stall":
			// Not select{}: the runtime's deadlock detector would turn an
			// idle child into exit 2 and misclassify the stall as a panic.
			for {
				time.Sleep(time.Hour)
			}
		case "exit":
			os.Exit(sc.Chaos.Code)
		}
	}
	return fakeOutcome(sc.Seed), nil
}

// fakeOutcome fabricates a deterministic outcome from the scenario seed.
func fakeOutcome(seed int64) *analysis.Outcome {
	f := float64(seed%10) / 100
	return &analysis.Outcome{
		Letters: map[string]analysis.LetterOutcome{
			"A": {
				OverallAvailability: 1 - f,
				EventAvailability:   0.9 - f,
				BaselineMedianRTTMs: 30,
				EventMedianRTTMs:    30 * (1 + f),
				RTTInflation:        1 + f,
			},
		},
		MinEventAvailability:  0.9 - f,
		MeanEventAvailability: 0.9 - f,
		MaxRTTInflation:       1 + f,
		RouteChanges:          int(seed),
	}
}

// testSpec builds a tiny grid of n scenarios (seeds 1..n).
func testSpec(t *testing.T, n int, chaos []ChaosSpec) *Spec {
	t.Helper()
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	s := &Spec{Name: "test-grid", Minutes: 100, Axes: Axes{Seeds: seeds}, Chaos: chaos}
	s.fillDefaults()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

func testRunnerConfig(t *testing.T) RunnerConfig {
	t.Helper()
	dir := t.TempDir()
	t.Setenv(envDir, dir)
	return RunnerConfig{
		Dir:          dir,
		Bin:          os.Args[0],
		BaseArgs:     []string{childFlag},
		Parallel:     2,
		Timeout:      10 * time.Second,
		StallTimeout: 2 * time.Second,
		MaxAttempts:  2,
		BackoffBase:  time.Millisecond,
		BackoffCap:   5 * time.Millisecond,
		Seed:         42,
		Logf:         t.Logf,
	}
}

func TestBackoffDelay(t *testing.T) {
	base, cap0 := 100*time.Millisecond, 800*time.Millisecond
	for attempt := 0; attempt < 8; attempt++ {
		d := BackoffDelay(base, cap0, attempt, rand.New(rand.NewSource(1)))
		if d > cap0 {
			t.Errorf("attempt %d: backoff %v exceeds cap %v", attempt, d, cap0)
		}
		if d < base/2 {
			t.Errorf("attempt %d: backoff %v below half the base", attempt, d)
		}
	}
	// Same seed, same schedule.
	a, b := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	for attempt := 0; attempt < 5; attempt++ {
		if BackoffDelay(base, cap0, attempt, a) != BackoffDelay(base, cap0, attempt, b) {
			t.Fatal("seeded backoff schedule is not reproducible")
		}
	}
}

func TestRunCompletesGrid(t *testing.T) {
	spec := testSpec(t, 3, nil)
	rc := testRunnerConfig(t)
	rep, err := Run(context.Background(), spec, rc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.GridSize != 3 || rep.Completed != 3 || rep.Quarantined != 0 || rep.Pending != 0 {
		t.Fatalf("report counts: %+v", rep)
	}
	if rep.Aggregate == nil {
		t.Fatal("no aggregate over completed scenarios")
	}
	// Seeds 1..3 → min event availability 0.9-0.03, total route changes 6.
	if got := rep.Aggregate.MinEventAvailability; got != 0.9-0.03 {
		t.Errorf("MinEventAvailability = %v", got)
	}
	if rep.Aggregate.TotalRouteChanges != 6 {
		t.Errorf("TotalRouteChanges = %d, want 6", rep.Aggregate.TotalRouteChanges)
	}
	for _, sr := range rep.Scenarios {
		if sr.Status != StatusCompleted || sr.Outcome == nil {
			t.Errorf("%s: %+v", sr.ID, sr)
		}
	}
}

func TestRunQuarantinesAndClassifies(t *testing.T) {
	// Grid of 4: scenario 1 panics, 2 stalls, 3 exits 7; scenario 0 is clean.
	spec := testSpec(t, 4, []ChaosSpec{
		{Scenario: 1, Kind: "panic", Minute: 10},
		{Scenario: 2, Kind: "stall", Minute: 10},
		{Scenario: 3, Kind: "exit", Minute: 10, Code: 7},
	})
	rc := testRunnerConfig(t)
	rc.StallTimeout = time.Second
	rep, err := Run(context.Background(), spec, rc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 1 || rep.Quarantined != 3 {
		t.Fatalf("counts: completed=%d quarantined=%d", rep.Completed, rep.Quarantined)
	}
	wantClass := map[int]string{1: ClassPanic, 2: ClassStall, 3: fmt.Sprintf("exit:%d", 7)}
	for _, sr := range rep.Scenarios {
		want, chaotic := wantClass[sr.Index]
		if !chaotic {
			if sr.Status != StatusCompleted {
				t.Errorf("scenario %d: status %s", sr.Index, sr.Status)
			}
			continue
		}
		if sr.Status != StatusQuarantined || sr.FailureClass != want {
			t.Errorf("scenario %d: status=%s class=%q, want quarantined/%q",
				sr.Index, sr.Status, sr.FailureClass, want)
		}
	}
	// The ledger holds the full forensic trail: MaxAttempts fails plus a
	// quarantine record per chaotic scenario.
	recs, err := ReadRecords(filepath.Join(rc.Dir, LedgerFileName))
	if err != nil {
		t.Fatal(err)
	}
	fails, quars := 0, 0
	for _, r := range recs {
		switch r.Type {
		case RecFail:
			fails++
		case RecQuarantine:
			quars++
			if r.Attempt != rc.MaxAttempts {
				t.Errorf("quarantine for %s after %d attempts, want %d", r.Scenario, r.Attempt, rc.MaxAttempts)
			}
		}
	}
	if fails != 3*rc.MaxAttempts || quars != 3 {
		t.Errorf("ledger: %d fails, %d quarantines", fails, quars)
	}
}

func TestRunTimeoutClass(t *testing.T) {
	spec := testSpec(t, 1, nil)
	rc := testRunnerConfig(t)
	rc.Timeout = 400 * time.Millisecond
	rc.StallTimeout = 10 * time.Second
	rc.MaxAttempts = 1
	t.Setenv(envSlow, spec.Expand()[0].ID)
	rep, err := Run(context.Background(), spec, rc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quarantined != 1 || rep.Scenarios[0].FailureClass != ClassTimeout {
		t.Fatalf("slow child: %+v", rep.Scenarios[0])
	}
}

func TestRunRetriesTransientFailure(t *testing.T) {
	spec := testSpec(t, 1, nil)
	rc := testRunnerConfig(t)
	rc.MaxAttempts = 3
	t.Setenv(envFlaky, spec.Expand()[0].ID)
	rep, err := Run(context.Background(), spec, rc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 1 {
		t.Fatalf("flaky scenario did not complete: %+v", rep.Scenarios[0])
	}
	recs, err := ReadRecords(filepath.Join(rc.Dir, LedgerFileName))
	if err != nil {
		t.Fatal(err)
	}
	fails := 0
	for _, r := range recs {
		if r.Type == RecFail {
			fails++
			if r.Class != "exit:1" {
				t.Errorf("flaky fail classified %q", r.Class)
			}
		}
	}
	if fails != 2 {
		t.Errorf("ledger shows %d fails, want 2", fails)
	}
}

func TestRunResumeSkipsCompleted(t *testing.T) {
	spec := testSpec(t, 3, nil)
	rc := testRunnerConfig(t)
	rep1, err := Run(context.Background(), spec, rc)
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := json.MarshalIndent(rep1, "", "  ")

	// Resuming a finished campaign must not touch a single child: the bomb
	// env makes any invocation fail loudly.
	t.Setenv(envBomb, "1")
	rc.Resume = true
	rep2, err := Run(context.Background(), spec, rc)
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := json.MarshalIndent(rep2, "", "  ")
	if string(j1) != string(j2) {
		t.Fatalf("resumed report differs:\n%s\n%s", j1, j2)
	}
}

func TestRunResumeRequeuesInFlight(t *testing.T) {
	spec := testSpec(t, 2, nil)
	rc := testRunnerConfig(t)
	scenarios := spec.Expand()

	// Hand-craft a crashed campaign: scenario 0 started but never resolved.
	led, _, err := OpenLedger(filepath.Join(rc.Dir, LedgerFileName))
	if err != nil {
		t.Fatal(err)
	}
	if err := led.Append(Record{Type: RecSpec, SpecDigest: spec.Digest()}); err != nil {
		t.Fatal(err)
	}
	if err := led.Append(Record{Type: RecStart, Scenario: scenarios[0].ID, Attempt: 0}); err != nil {
		t.Fatal(err)
	}
	led.Close()

	rc.Resume = true
	rep, err := Run(context.Background(), spec, rc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 2 {
		t.Fatalf("in-flight scenario not re-run: %+v", rep)
	}
}

func TestRunSpecMismatch(t *testing.T) {
	spec := testSpec(t, 1, nil)
	rc := testRunnerConfig(t)
	if _, err := Run(context.Background(), spec, rc); err != nil {
		t.Fatal(err)
	}
	other := testSpec(t, 2, nil)
	rc.Resume = true
	if _, err := Run(context.Background(), other, rc); err == nil || !strings.Contains(err.Error(), "different spec") {
		t.Fatalf("edited spec resumed: %v", err)
	}
}

func TestRunRefusesExistingLedgerWithoutResume(t *testing.T) {
	spec := testSpec(t, 1, nil)
	rc := testRunnerConfig(t)
	if _, err := Run(context.Background(), spec, rc); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), spec, rc); err == nil {
		t.Fatal("second fresh run over an existing ledger accepted")
	}
}

func TestRunCanceled(t *testing.T) {
	spec := testSpec(t, 1, nil)
	rc := testRunnerConfig(t)
	t.Setenv(envSlow, spec.Expand()[0].ID)
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if _, err := Run(ctx, spec, rc); err == nil {
		t.Fatal("canceled campaign returned no error")
	}
}
