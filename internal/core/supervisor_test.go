package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRestartableClassification(t *testing.T) {
	cases := []struct {
		name    string
		err     error
		stalled bool
		want    bool
	}{
		{"worker panic", fmt.Errorf("letter K: %w", ErrWorkerPanic), false, true},
		{"run panic", fmt.Errorf("attempt 0: %w", ErrRunPanic), false, true},
		{"watchdog-induced cancel", fmt.Errorf("canceled: %w", context.Canceled), true, true},
		{"external cancel", fmt.Errorf("canceled: %w", context.Canceled), false, false},
		{"config error", errors.New("bad topology"), false, false},
		{"mismatch", fmt.Errorf("resume: %w", ErrSnapshotMismatch), false, false},
		{"stalled but unrelated error", errors.New("disk full"), true, false},
	}
	for _, tc := range cases {
		if got := restartable(tc.err, tc.stalled); got != tc.want {
			t.Errorf("%s: restartable = %v, want %v", tc.name, got, tc.want)
		}
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

func TestSuperviseHappyPath(t *testing.T) {
	if testing.Short() {
		t.Skip("engine runs")
	}
	const seed = 5
	golden := uninterruptedFingerprint(t, seed, 2, nil)
	ev, report, err := Supervise(context.Background(), resumeConfig(seed),
		SupervisorConfig{Dir: t.TempDir(), EveryN: 10, Seed: 1},
		WithWorkers(2), WithSchedule(resumeSchedule()))
	if err != nil {
		t.Fatal(err)
	}
	if !report.Completed || report.Attempts != 1 || len(report.Restarts) != 0 {
		t.Fatalf("report = %+v, want clean single attempt", report)
	}
	compareFingerprints(t, "supervised", fingerprintEv(t, ev), golden)
}

// TestSuperviseRecoversStall wedges the engine once (a progress callback
// that stops returning) and verifies the watchdog converts the missing
// heartbeats into a restart from the last checkpoint — with the final
// output still byte-identical to an uninterrupted run.
func TestSuperviseRecoversStall(t *testing.T) {
	if testing.Short() {
		t.Skip("engine runs with deliberate stalls")
	}
	const seed = 7
	golden := uninterruptedFingerprint(t, seed, 2, nil)
	var wedged atomic.Bool
	progress := func(p Progress) {
		if p.Stage == StageRun && p.Done == 30 && wedged.CompareAndSwap(false, true) {
			time.Sleep(900 * time.Millisecond) // far past the stall timeout
		}
	}
	ev, report, err := Supervise(context.Background(), resumeConfig(seed),
		SupervisorConfig{
			Dir: t.TempDir(), EveryN: 10, Seed: 2,
			StallTimeout: 150 * time.Millisecond,
			BackoffBase:  20 * time.Millisecond,
			BackoffCap:   50 * time.Millisecond,
			MaxRestarts:  5,
		},
		WithWorkers(2), WithSchedule(resumeSchedule()), WithProgress(progress))
	if err != nil {
		t.Fatalf("err = %v (report %+v)", err, report)
	}
	if !report.Completed || len(report.Restarts) == 0 {
		t.Fatalf("report = %+v, want at least one restart", report)
	}
	stalls := 0
	for _, r := range report.Restarts {
		if r.Cause == "stall" {
			stalls++
			if r.ResumeFromMinute < 20 {
				t.Errorf("stall restart resumed from minute %d, want >= 20 (checkpoints were durable)", r.ResumeFromMinute)
			}
		}
	}
	if stalls == 0 {
		t.Fatalf("no stall-classified restart in %+v", report.Restarts)
	}
	compareFingerprints(t, "stall-recovered", fingerprintEv(t, ev), golden)
}

// TestSuperviseRecoversPanic panics the run once (outside the worker
// guards) and verifies the supervisor recovers it into a restart.
func TestSuperviseRecoversPanic(t *testing.T) {
	if testing.Short() {
		t.Skip("engine runs")
	}
	const seed = 5
	golden := uninterruptedFingerprint(t, seed, 2, nil)
	var fired atomic.Bool
	progress := func(p Progress) {
		if p.Stage == StageRun && p.Done == 25 && fired.CompareAndSwap(false, true) {
			panic("injected: progress handler died")
		}
	}
	ev, report, err := Supervise(context.Background(), resumeConfig(seed),
		SupervisorConfig{
			Dir: t.TempDir(), EveryN: 10, Seed: 3,
			BackoffBase: 20 * time.Millisecond, BackoffCap: 50 * time.Millisecond,
		},
		WithWorkers(2), WithSchedule(resumeSchedule()), WithProgress(progress))
	if err != nil {
		t.Fatalf("err = %v (report %+v)", err, report)
	}
	if !report.Completed || len(report.Restarts) != 1 {
		t.Fatalf("report = %+v, want exactly one restart", report)
	}
	r := report.Restarts[0]
	if r.Cause != "panic" || !strings.Contains(r.Detail, "injected") {
		t.Errorf("restart = %+v, want panic cause with injected detail", r)
	}
	// The panic fired after the minute-20 checkpoint committed.
	if r.ResumeFromMinute < 20 {
		t.Errorf("panic restart resumed from minute %d, want >= 20", r.ResumeFromMinute)
	}
	compareFingerprints(t, "panic-recovered", fingerprintEv(t, ev), golden)
}

// TestSuperviseGivesUp: a failure on every attempt must exhaust the
// restart budget and surface the last error, with the report saying so.
func TestSuperviseGivesUp(t *testing.T) {
	if testing.Short() {
		t.Skip("engine runs")
	}
	progress := func(p Progress) {
		if p.Stage == StageRun && p.Done == 15 {
			panic("injected: always fails")
		}
	}
	ev, report, err := Supervise(context.Background(), resumeConfig(5),
		SupervisorConfig{
			Dir: t.TempDir(), EveryN: 10, Seed: 4, MaxRestarts: 1,
			BackoffBase: 10 * time.Millisecond, BackoffCap: 20 * time.Millisecond,
		},
		WithWorkers(2), WithSchedule(resumeSchedule()), WithProgress(progress))
	if err == nil || !errors.Is(err, ErrRunPanic) {
		t.Fatalf("err = %v, want wrapped ErrRunPanic", err)
	}
	if !errors.Is(err, ErrRestartBudget) {
		t.Fatalf("err = %v, want wrapped ErrRestartBudget", err)
	}
	if got := ExitCode(err); got != ExitRestartsExhausted {
		t.Errorf("ExitCode = %d, want ExitRestartsExhausted", got)
	}
	if ev != nil {
		t.Error("failed supervision returned an evaluator")
	}
	if report.Completed || report.Attempts != 2 || len(report.Restarts) != 1 || report.Err == "" {
		t.Errorf("report = %+v, want 2 exhausted attempts", report)
	}
}

// TestSuperviseExternalCancel: caller cancellation is not a recoverable
// failure — the supervisor must stop without restarting.
func TestSuperviseExternalCancel(t *testing.T) {
	if testing.Short() {
		t.Skip("engine run")
	}
	ctx, cancel := context.WithCancel(context.Background())
	progress := func(p Progress) {
		if p.Stage == StageRun && p.Done == 15 {
			cancel()
		}
	}
	_, report, err := Supervise(ctx, resumeConfig(5),
		SupervisorConfig{Dir: t.TempDir(), EveryN: 10, Seed: 5},
		WithWorkers(2), WithSchedule(resumeSchedule()), WithProgress(progress))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if report.Completed || len(report.Restarts) != 0 {
		t.Errorf("report = %+v, want no restarts on external cancel", report)
	}
}

func TestSuperviseRequiresDir(t *testing.T) {
	_, report, err := Supervise(context.Background(), resumeConfig(5), SupervisorConfig{})
	if err == nil || report == nil {
		t.Fatalf("err = %v, report = %v; want error and report", err, report)
	}
}
