package core

// The run supervisor: bounded restarts-from-checkpoint around ResumeRun.
//
// Long event replays fail in three ways worth surviving: a letter worker
// panics on poisoned state (recovered into ErrWorkerPanic), the whole run
// goroutine panics outside a worker (recovered here into ErrRunPanic), or
// a worker wedges without failing — detected as missing per-letter
// heartbeats by a watchdog. All three become restarts from the last good
// checkpoint, with seeded capped backoff between attempts, up to a bounded
// budget; everything else (cancellation from the caller, configuration
// errors, disk failures) fails fast. The supervisor's own timing
// (watchdog, backoff) never feeds the simulation, so a supervised run's
// output remains byte-identical to an unsupervised one.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"
)

// ErrRunPanic marks a panic that escaped the engine's per-worker recovery
// and was caught at the supervisor's run boundary.
var ErrRunPanic = errors.New("core: run panicked")

// SupervisorConfig tunes the run supervisor.
type SupervisorConfig struct {
	// Dir is the checkpoint directory (required); EveryN the snapshot
	// stride in minutes (<1 selects the WithCheckpoint default of 10).
	Dir    string
	EveryN int
	// StallTimeout is how long the watchdog lets the engine go without any
	// letter heartbeat before declaring the attempt stalled (default 30s).
	StallTimeout time.Duration
	// MaxRestarts bounds recovery attempts after the first run (default 3).
	MaxRestarts int
	// BackoffBase/BackoffCap shape the capped exponential delay before
	// each restart (defaults 500ms / 10s); Seed drives its jitter, so a
	// given supervisor run waits a reproducible schedule.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	Seed        int64
	// Logf, when set, receives one line per lifecycle step.
	Logf func(format string, args ...any)
}

func (c *SupervisorConfig) fillDefaults() {
	if c.StallTimeout <= 0 {
		c.StallTimeout = 30 * time.Second
	}
	if c.MaxRestarts < 0 {
		c.MaxRestarts = 0
	} else if c.MaxRestarts == 0 {
		c.MaxRestarts = 3
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 500 * time.Millisecond
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = 10 * time.Second
	}
}

// Restart records one recovery action in the report.
type Restart struct {
	// Attempt is the 0-based attempt that failed and triggered this restart.
	Attempt int `json:"attempt"`
	// Cause is "stall", "panic" (run-level), or "worker-panic".
	Cause string `json:"cause"`
	// Detail is the failing error's message, or the stall description.
	Detail string `json:"detail"`
	// ResumeFromMinute is the checkpoint minute the next attempt starts
	// from (0 = fresh run: no checkpoint was durable yet).
	ResumeFromMinute int `json:"resume_from_minute"`
	// Backoff is the delay slept before the next attempt.
	Backoff time.Duration `json:"backoff_ns"`
	// Abandoned marks a stalled attempt whose goroutine never acknowledged
	// cancellation within the grace period and was left behind.
	Abandoned bool `json:"abandoned,omitempty"`
}

// RecoveryReport is the supervisor's structured end-of-run summary.
type RecoveryReport struct {
	// Attempts is the total number of run attempts (1 = no recovery needed).
	Attempts int `json:"attempts"`
	// Restarts describes each recovery, in order.
	Restarts []Restart `json:"restarts"`
	// Completed reports whether the run finally finished.
	Completed bool `json:"completed"`
	// Err is the terminal error when Completed is false.
	Err string `json:"err,omitempty"`
}

// restartable reports whether an attempt's failure is one the supervisor
// recovers from by restarting from the last checkpoint. stalled marks a
// cancellation the watchdog itself induced.
func restartable(err error, stalled bool) bool {
	switch {
	case errors.Is(err, ErrWorkerPanic), errors.Is(err, ErrRunPanic):
		return true
	case stalled && errors.Is(err, context.Canceled):
		return true
	}
	return false
}

// runResult carries one attempt's outcome out of its goroutine.
type runResult struct {
	ev  *Evaluator
	err error
}

// Supervise executes a checkpointed run under a watchdog, restarting from
// the last good snapshot after stalls and recovered panics. It returns the
// completed evaluator, the recovery report (always non-nil, also on
// failure), and the terminal error. opts are passed to every attempt's
// ResumeRun; the supervisor appends its own checkpoint, context, and
// heartbeat options, so callers should not pass WithCheckpoint,
// WithContext, or WithHeartbeat themselves.
func Supervise(ctx context.Context, cfg Config, scfg SupervisorConfig, opts ...Option) (*Evaluator, *RecoveryReport, error) {
	scfg.fillDefaults()
	if ctx == nil {
		ctx = context.Background()
	}
	logf := scfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if scfg.Dir == "" {
		report := &RecoveryReport{Err: "supervisor requires a checkpoint directory"}
		return nil, report, fmt.Errorf("core: supervisor requires a checkpoint directory")
	}
	rng := rand.New(rand.NewSource(scfg.Seed))
	report := &RecoveryReport{}
	for attempt := 0; ; attempt++ {
		report.Attempts = attempt + 1
		if err := ctx.Err(); err != nil {
			report.Err = err.Error()
			return nil, report, fmt.Errorf("core: supervisor canceled before attempt %d: %w", attempt, err)
		}
		ev, res, stalled := superviseAttempt(ctx, cfg, &scfg, attempt, logf, opts)
		if res.err == nil {
			// The attempt ran under a per-attempt cancelable context that is
			// torn down with the attempt; rebind the finished evaluator to
			// the caller's context so Measure and later accessors work.
			ev.opts.ctx = ctx
			report.Completed = true
			logf("supervisor: run completed after %d attempt(s)", report.Attempts)
			return ev, report, nil
		}
		if !restartable(res.err, stalled.detected) || ctx.Err() != nil {
			report.Err = res.err.Error()
			return nil, report, res.err
		}
		if attempt >= scfg.MaxRestarts {
			report.Err = res.err.Error()
			return nil, report, fmt.Errorf("%w after %d attempts: %w", ErrRestartBudget, report.Attempts, res.err)
		}
		backoff := backoffDelay(scfg.BackoffBase, scfg.BackoffCap, attempt, rng)
		report.Restarts = append(report.Restarts, Restart{
			Attempt:          attempt,
			Cause:            causeOf(res.err, stalled.detected),
			Detail:           res.err.Error(),
			ResumeFromMinute: stalled.lastMinute,
			Backoff:          backoff,
			Abandoned:        stalled.abandoned,
		})
		logf("supervisor: attempt %d failed (%s), restarting from checkpoint in %v: %v",
			attempt, causeOf(res.err, stalled.detected), backoff, res.err)
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			report.Err = ctx.Err().Error()
			return nil, report, fmt.Errorf("core: supervisor canceled during backoff: %w", ctx.Err())
		}
	}
}

// stallState is what the watchdog learned about one attempt.
type stallState struct {
	detected bool
	// lastMinute is the newest minute any letter heartbeat reported, i.e.
	// a lower bound on where the next attempt's checkpoint restore lands.
	lastMinute int
	abandoned  bool
}

// superviseAttempt runs one ResumeRun attempt under the watchdog.
func superviseAttempt(ctx context.Context, cfg Config, scfg *SupervisorConfig, attempt int, logf func(string, ...any), opts []Option) (*Evaluator, runResult, stallState) {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// lastBeat holds the wall-clock nanos of the newest heartbeat; zero
	// until the first beat arms the watchdog, so setup (topology
	// generation, checkpoint restore) is never counted as a stall.
	var lastBeat atomic.Int64
	var lastMinute atomic.Int64
	hb := func(letter byte, minute int) {
		lastBeat.Store(time.Now().UnixNano()) //repolint:allow wallclock -- supervisor liveness clock, outside the simulation plane
		for {
			prev := lastMinute.Load()
			if int64(minute) <= prev || lastMinute.CompareAndSwap(prev, int64(minute)) {
				break
			}
		}
	}

	attemptOpts := append(append([]Option(nil), opts...),
		WithCheckpoint(scfg.Dir, scfg.EveryN),
		WithContext(runCtx),
		WithHeartbeat(hb),
	)

	done := make(chan runResult, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- runResult{err: fmt.Errorf("core: attempt %d: %v: %w", attempt, r, ErrRunPanic)}
			}
		}()
		ev, err := ResumeRun(scfg.Dir, cfg, attemptOpts...)
		done <- runResult{ev: ev, err: err}
	}()

	var st stallState
	ticker := time.NewTicker(watchdogTick(scfg.StallTimeout))
	defer ticker.Stop()
	for {
		select {
		case res := <-done:
			st.lastMinute = int(lastMinute.Load())
			return res.ev, res, st
		case <-ticker.C:
			beat := lastBeat.Load()
			if beat == 0 || st.detected {
				continue
			}
			age := time.Since(time.Unix(0, beat)) //repolint:allow wallclock -- supervisor liveness clock, outside the simulation plane
			if age < scfg.StallTimeout {
				continue
			}
			// Stall: cancel the attempt and wait a bounded grace period
			// for the run goroutine to acknowledge. A canceled engine
			// starts no checkpoint append after the cancellation (runFrom
			// re-checks the context immediately before each append, and
			// an append already in flight is over long before the grace
			// period is), so abandoning a wedged goroutine cannot write
			// into the log the next attempt continues.
			st.detected = true
			st.lastMinute = int(lastMinute.Load())
			logf("supervisor: attempt %d stalled (no heartbeat for %v at minute ~%d), canceling",
				attempt, age.Round(time.Millisecond), st.lastMinute)
			cancel()
			select {
			case res := <-done:
				return res.ev, res, st
			case <-time.After(scfg.StallTimeout):
				st.abandoned = true
				return nil, runResult{err: fmt.Errorf("core: attempt %d stalled at minute ~%d and ignored cancellation: %w",
					attempt, st.lastMinute, context.Canceled)}, st
			}
		}
	}
}

// watchdogTick is the poll interval for a stall timeout.
func watchdogTick(stall time.Duration) time.Duration {
	tick := stall / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	return tick
}

// backoffDelay is the capped exponential restart delay with seeded jitter
// in [0.5, 1.0] of the nominal value.
func backoffDelay(base, cap0 time.Duration, attempt int, rng *rand.Rand) time.Duration {
	d := base
	for i := 0; i < attempt && d < cap0; i++ {
		d *= 2
	}
	if d > cap0 {
		d = cap0
	}
	return time.Duration(float64(d) * (0.5 + 0.5*rng.Float64()))
}

// causeOf classifies a restartable error for the report.
func causeOf(err error, stalled bool) string {
	switch {
	case stalled:
		return "stall"
	case errors.Is(err, ErrWorkerPanic):
		return "worker-panic"
	case errors.Is(err, ErrRunPanic):
		return "panic"
	default:
		return "error"
	}
}
