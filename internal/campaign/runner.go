package campaign

// The campaign runner: executes each scenario of the expanded grid in a
// scenario worker process (worker.go) under a hard deadline, heartbeat-based
// stall detection, and bounded seeded-backoff retries. One panicking,
// hanging, or OOM-killed scenario can never take down the campaign: it
// costs the worker it ran in, its failure is classified
// (panic/timeout/stall/exit code), retried on a fresh worker, and finally
// quarantined into the report. All wall-clock use here is supervisor
// liveness timing — none of it feeds the simulation or the report, which
// stay deterministic.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/rootevent/anycastddos/internal/analysis"
	"github.com/rootevent/anycastddos/internal/atomicio"
	"github.com/rootevent/anycastddos/internal/core"
)

// Failure classes recorded in fail/quarantine records and the report.
const (
	// ClassPanic marks a child that panicked (recovered or not: exit 2).
	ClassPanic = "panic"
	// ClassTimeout marks a child killed at the per-scenario deadline.
	ClassTimeout = "timeout"
	// ClassStall marks a child killed after its heartbeats went silent.
	ClassStall = "stall"
	// ClassCanceled marks a child that reported cancellation (exit 4).
	ClassCanceled = "canceled"
	// ClassSignal marks a child killed by a signal the runner did not send.
	ClassSignal = "signal"
	// ClassBadOutcome marks a child that reported a scenario done (or exited
	// cleanly) without leaving a parseable outcome file for it.
	ClassBadOutcome = "bad-outcome"
)

// ScenarioFileName and OutcomeFileName are the per-scenario-directory
// contract between runner and child: the runner writes the scenario spec,
// the child writes its outcome next to it.
const (
	ScenarioFileName = "scenario.json"
	OutcomeFileName  = "outcome.json"
	// LedgerFileName is the campaign ledger inside the campaign directory.
	LedgerFileName = "ledger.bin"
	// ReportFileName is the aggregated campaign report.
	ReportFileName = "campaign.json"
)

// RunnerConfig tunes the campaign runner.
type RunnerConfig struct {
	// Dir is the campaign directory: the ledger, one subdirectory per
	// scenario, and the final report all live under it. Required.
	Dir string
	// Bin is the scenario worker binary, started once per Parallel slot
	// as `Bin BaseArgs... -` and restarted after any failed attempt. The
	// worker contract (Serve implements it): read one scenario.json path
	// per stdin line; for each, write OutcomeFileName next to it
	// atomically, then print "<id> done"; emit output lines as liveness
	// heartbeats meanwhile; exit 0 at stdin EOF and with a core.Exit* code
	// on the first scenario that fails. Required.
	Bin      string
	BaseArgs []string
	// Parallel is how many scenarios run concurrently, each in its own
	// worker (default 2).
	Parallel int
	// Timeout is the hard per-attempt deadline (default 10m).
	Timeout time.Duration
	// StallTimeout kills an attempt whose output has been silent this long
	// (default 30s); any line the child writes counts as a heartbeat.
	StallTimeout time.Duration
	// MaxAttempts is how many classified failures a scenario may accrue
	// before quarantine (default 3). Attempts interrupted by a runner
	// crash are not failures and do not count.
	MaxAttempts int
	// BackoffBase/BackoffCap shape the capped exponential delay between a
	// scenario's retries (defaults 250ms / 5s); Seed drives its jitter.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	Seed        int64
	// Resume continues a previous campaign from its ledger. Without it, a
	// pre-existing ledger in Dir is an error — never silently mixed into.
	Resume bool
	// Logf, when set, receives one line per scenario lifecycle step.
	Logf func(format string, args ...any)
}

func (rc *RunnerConfig) fillDefaults() {
	if rc.Parallel < 1 {
		rc.Parallel = 2
	}
	if rc.Timeout <= 0 {
		rc.Timeout = 10 * time.Minute
	}
	if rc.StallTimeout <= 0 {
		rc.StallTimeout = 30 * time.Second
	}
	if rc.MaxAttempts < 1 {
		rc.MaxAttempts = 3
	}
	if rc.BackoffBase <= 0 {
		rc.BackoffBase = 250 * time.Millisecond
	}
	if rc.BackoffCap <= 0 {
		rc.BackoffCap = 5 * time.Second
	}
}

// nowNanos is the runner's liveness clock: child deadlines, stall
// detection, and backoff only — never the simulation plane or the report.
func nowNanos() int64 {
	return time.Now().UnixNano() //repolint:allow wallclock -- supervisor liveness clock, outside the simulation plane
}

type runner struct {
	cfg  RunnerConfig
	led  *Ledger
	logf func(string, ...any)

	mu sync.Mutex
	st *State
}

// Run executes (or resumes) the campaign described by spec under rc and
// returns the aggregated report. Scenario failures never fail the
// campaign — they end up quarantined in the report; only infrastructure
// failures (ledger I/O, spec mismatch, cancellation) return an error.
func Run(ctx context.Context, spec *Spec, rc RunnerConfig) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if rc.Dir == "" || rc.Bin == "" {
		return nil, fmt.Errorf("campaign: runner needs Dir and Bin")
	}
	if strings.ContainsAny(rc.Dir, "\r\n") {
		return nil, fmt.Errorf("campaign: Dir %q contains a line break; scenario paths travel to workers one per line", rc.Dir)
	}
	rc.fillDefaults()
	spec.fillDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	logf := rc.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(rc.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: create dir: %w", err)
	}
	ledgerPath := filepath.Join(rc.Dir, LedgerFileName)
	if !rc.Resume {
		if _, err := os.Stat(ledgerPath); err == nil {
			return nil, fmt.Errorf("campaign: %s already has a ledger; pass -resume to continue it or use a fresh directory", rc.Dir)
		}
	}
	led, recs, err := OpenLedger(ledgerPath)
	if err != nil {
		return nil, err
	}
	defer led.Close() //repolint:allow syncclose -- every Append fsyncs before returning; close has nothing left to flush
	st := Replay(recs)
	digest := spec.Digest()
	switch {
	case st.SpecDigest == "":
		if err := led.Append(Record{Type: RecSpec, SpecDigest: digest}); err != nil {
			return nil, err
		}
		st.SpecDigest = digest
	case st.SpecDigest != digest:
		return nil, fmt.Errorf("%w: ledger digest %.12s…, spec digest %.12s…", ErrSpecMismatch, st.SpecDigest, digest)
	}

	scenarios := spec.Expand()
	r := &runner{cfg: rc, led: led, logf: logf, st: st}
	var pending []*Scenario
	requeued := 0
	for i := range scenarios {
		sc := &scenarios[i]
		if _, done := st.Done[sc.ID]; done {
			continue
		}
		if _, q := st.Quarantined[sc.ID]; q {
			continue
		}
		if st.InFlight[sc.ID] {
			requeued++
		}
		pending = append(pending, sc)
	}
	logf("campaign %q: %d scenarios (%d done, %d quarantined, %d to run, %d re-queued in-flight)",
		spec.Name, len(scenarios), len(st.Done), len(st.Quarantined), len(pending), requeued)

	if err := r.runPool(ctx, pending); err != nil {
		return nil, err
	}
	return BuildReport(spec, scenarios, r.snapshotState())
}

// runPool drains pending through cfg.Parallel slots, each with its own
// scenario worker process, stopping the whole pool at the first
// infrastructure error. No worker outlives the call.
func (r *runner) runPool(ctx context.Context, pending []*Scenario) error {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	queue := make(chan *Scenario)
	var wg sync.WaitGroup
	var firstErr error
	var errOnce sync.Once
	for w := 0; w < r.cfg.Parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sl slot
			defer sl.retire()
			for sc := range queue {
				if err := r.runScenario(runCtx, &sl, sc); err != nil {
					errOnce.Do(func() { firstErr = err; cancel() })
					return
				}
			}
		}()
	}
feed:
	for _, sc := range pending {
		select {
		case queue <- sc:
		case <-runCtx.Done():
			break feed
		}
	}
	close(queue)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// runScenario drives one scenario to a terminal state: done in the ledger,
// quarantined in the ledger, or an infrastructure error.
func (r *runner) runScenario(ctx context.Context, sl *slot, sc *Scenario) error {
	r.mu.Lock()
	fails := r.st.Fails[sc.ID]
	r.mu.Unlock()
	rng := rand.New(rand.NewSource(r.cfg.Seed ^ int64(fnvHash(sc.ID))))
	// Fast-forward the jitter stream past backoffs already taken in a
	// previous runner life, so retry pacing stays seeded per scenario.
	for i := 0; i < fails; i++ {
		_ = rng.Float64()
	}
	for {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("campaign: canceled before %s attempt %d: %w", sc.ID, fails, err)
		}
		if err := r.led.Append(Record{Type: RecStart, Scenario: sc.ID, Attempt: fails}); err != nil {
			return err
		}
		outcome, class, detail, err := r.execAttempt(ctx, sl, sc, fails)
		if err != nil {
			return err
		}
		if class == "" {
			if err := r.led.Append(Record{Type: RecDone, Scenario: sc.ID, Outcome: outcome}); err != nil {
				return err
			}
			r.mu.Lock()
			r.st.Done[sc.ID] = outcome
			r.mu.Unlock()
			r.logf("%s: completed (attempt %d)", sc.ID, fails)
			return nil
		}
		fails++
		if err := r.led.Append(Record{Type: RecFail, Scenario: sc.ID, Attempt: fails - 1, Class: class, Detail: detail}); err != nil {
			return err
		}
		r.mu.Lock()
		r.st.Fails[sc.ID] = fails
		r.st.LastClass[sc.ID] = class
		r.mu.Unlock()
		if fails >= r.cfg.MaxAttempts {
			q := Quarantine{Class: class, Detail: detail, Attempts: fails}
			if err := r.led.Append(Record{Type: RecQuarantine, Scenario: sc.ID, Attempt: fails, Class: class, Detail: detail}); err != nil {
				return err
			}
			r.mu.Lock()
			r.st.Quarantined[sc.ID] = q
			r.mu.Unlock()
			r.logf("%s: quarantined after %d attempts (%s)", sc.ID, fails, class)
			return nil
		}
		backoff := BackoffDelay(r.cfg.BackoffBase, r.cfg.BackoffCap, fails-1, rng)
		r.logf("%s: attempt %d failed (%s), retrying in %v", sc.ID, fails-1, class, backoff)
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return fmt.Errorf("campaign: canceled during %s backoff: %w", sc.ID, ctx.Err())
		}
	}
}

// slot is one of the pool's Parallel lanes: it owns at most one live
// scenario worker, started on first use and after every failed attempt.
type slot struct {
	w *worker
}

// retire asks the slot's idle worker, if it has one, to exit.
func (sl *slot) retire() {
	if sl.w != nil {
		sl.w.stop()
		sl.w = nil
	}
}

// discard kills the slot's worker, if it has one, whatever it is doing.
func (sl *slot) discard() {
	if sl.w != nil {
		sl.w.kill()
		sl.w = nil
	}
}

// execAttempt runs sc once on the slot's worker. It returns the canonical
// outcome JSON on success (class ""), or a failure class and detail — and
// then the worker is gone, whatever it was doing, so the next attempt
// starts clean; err is reserved for infrastructure failures that must
// abort the campaign.
func (r *runner) execAttempt(ctx context.Context, sl *slot, sc *Scenario, attempt int) (json.RawMessage, string, string, error) {
	dir := filepath.Join(r.cfg.Dir, "scenarios", sc.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, "", "", fmt.Errorf("campaign: scenario dir: %w", err)
	}
	scenPath := filepath.Join(dir, ScenarioFileName)
	outPath := filepath.Join(dir, OutcomeFileName)
	data, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		return nil, "", "", fmt.Errorf("campaign: encode scenario: %w", err)
	}
	if err := atomicio.WriteFileBytes(scenPath, append(data, '\n')); err != nil {
		return nil, "", "", err
	}
	// Drop any stale outcome so a worker that dies before writing cannot be
	// mistaken for a success by this attempt's readback.
	if err := os.Remove(outPath); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, "", "", fmt.Errorf("campaign: clear stale outcome: %w", err)
	}

	if sl.w != nil {
		select {
		case <-sl.w.exited: // died idle (killed from outside, OOM): not this attempt's failure
			sl.discard()
		default:
		}
	}
	if sl.w == nil {
		if sl.w, err = r.startWorker(); err != nil {
			return nil, "", "", err
		}
	}
	w := sl.w
	start := nowNanos()
	w.out.begin(start)
	// A failed write means the worker is going or gone; its exit status,
	// picked up below, is the classification.
	_, _ = io.WriteString(w.stdin, scenPath+"\n")

	// fail charges this attempt with the loss of its worker.
	fail := func(class, detail string) (json.RawMessage, string, string, error) {
		sl.discard()
		return nil, class, detail + w.out.suffix(), nil
	}
	// reported handles the worker's "<id> done".
	reported := func(id string) (json.RawMessage, string, string, error) {
		if id != sc.ID {
			return fail(ClassBadOutcome, fmt.Sprintf("worker reported %q done while running %s", id, sc.ID))
		}
		outcome, perr := readOutcome(outPath)
		if perr != nil {
			return fail(ClassBadOutcome, perr.Error())
		}
		return outcome, "", "", nil
	}
	ticker := time.NewTicker(25 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case id := <-w.out.done:
			return reported(id)
		case <-w.exited:
			// All of a reaped worker's output has been delivered: a report
			// it made just before dying still counts, and is already here.
			select {
			case id := <-w.out.done:
				sl.discard()
				return reported(id)
			default:
			}
			var ee *exec.ExitError
			switch {
			case errors.As(w.waitErr, &ee):
				return fail(classForExit(ee.ExitCode()), w.waitErr.Error())
			case w.waitErr != nil:
				sl.discard()
				return nil, "", "", fmt.Errorf("campaign: wait for scenario worker: %w", w.waitErr)
			default:
				return fail(ClassBadOutcome, fmt.Sprintf("worker exited 0 without reporting %s done", sc.ID))
			}
		case <-ctx.Done():
			sl.discard()
			return nil, "", "", fmt.Errorf("campaign: canceled while running %s: %w", sc.ID, ctx.Err())
		case <-ticker.C:
			now := nowNanos()
			if age := time.Duration(now - w.out.lastBeat.Load()); age >= r.cfg.StallTimeout {
				return fail(ClassStall, fmt.Sprintf("no output for %v at attempt %d", age.Round(time.Millisecond), attempt))
			}
			if run := time.Duration(now - start); run >= r.cfg.Timeout {
				return fail(ClassTimeout, fmt.Sprintf("exceeded the %v scenario deadline", r.cfg.Timeout))
			}
		}
	}
}

// readOutcome loads and canonicalizes the child's outcome file: it must
// parse as an analysis.Outcome, and the ledger stores the compact
// re-marshaled form so resumed and fresh reports embed identical bytes.
func readOutcome(path string) (json.RawMessage, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: worker reported done without a readable outcome: %w", err)
	}
	var out analysis.Outcome
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("campaign: child outcome does not parse: %w", err)
	}
	canon, err := json.Marshal(&out)
	if err != nil {
		return nil, fmt.Errorf("campaign: re-encode outcome: %w", err)
	}
	return canon, nil
}

// classForExit maps a child exit status to a failure class, following the
// core.Exit* contract; ExitCode -1 means signal-killed.
func classForExit(code int) string {
	switch code {
	case -1:
		return ClassSignal
	case core.ExitPanic:
		return ClassPanic
	case core.ExitCanceled:
		return ClassCanceled
	default:
		return fmt.Sprintf("exit:%d", code)
	}
}

// BackoffDelay is the capped exponential retry delay with seeded jitter
// in [0.5, 1.0] of the nominal value.
func BackoffDelay(base, cap0 time.Duration, attempt int, rng *rand.Rand) time.Duration {
	d := base
	for i := 0; i < attempt && d < cap0; i++ {
		d *= 2
	}
	if d > cap0 {
		d = cap0
	}
	return time.Duration(float64(d) * (0.5 + 0.5*rng.Float64()))
}

// snapshotState copies the runner's state for report building.
func (r *runner) snapshotState() *State {
	r.mu.Lock()
	defer r.mu.Unlock()
	cp := &State{
		SpecDigest:  r.st.SpecDigest,
		Done:        make(map[string]json.RawMessage, len(r.st.Done)),
		Quarantined: make(map[string]Quarantine, len(r.st.Quarantined)),
		Fails:       make(map[string]int, len(r.st.Fails)),
		LastClass:   make(map[string]string, len(r.st.LastClass)),
		InFlight:    make(map[string]bool, len(r.st.InFlight)),
	}
	for k, v := range r.st.Done {
		cp.Done[k] = v
	}
	for k, v := range r.st.Quarantined {
		cp.Quarantined[k] = v
	}
	for k, v := range r.st.Fails {
		cp.Fails[k] = v
	}
	for k, v := range r.st.LastClass {
		cp.LastClass[k] = v
	}
	for k, v := range r.st.InFlight {
		cp.InFlight[k] = v
	}
	return cp
}

// fnvHash is the scenario-ID hash that keys per-scenario retry jitter.
func fnvHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
