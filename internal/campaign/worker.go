package campaign

// Scenario workers: the line protocol between the runner and its
// long-lived scenario children, from both ends.
//
// The runner starts one worker per Parallel slot as `Bin BaseArgs... -`
// and feeds it one scenario.json path per stdin line. For each line the
// worker runs the scenario, writes outcome.json next to the scenario file
// atomically, prints "<id> done" and reads the next line. It exits 0 at
// stdin EOF — a SIGKILLed runner takes its pipes with it, so no worker
// outlives one — and with a core.Exit* status on the first scenario error;
// a panic or scripted chaos ends the process the way it always did. Every
// line a worker prints is a liveness heartbeat. The runner charges a dead,
// silent, or overdue worker to the one attempt it was running, replaces the
// worker, and carries on.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rootevent/anycastddos/internal/analysis"
	"github.com/rootevent/anycastddos/internal/atomicio"
	"github.com/rootevent/anycastddos/internal/core"
)

// ServeStdin is the argument that makes a scenario child read scenario
// paths from standard input; the runner appends it to BaseArgs.
const ServeStdin = "-"

// doneSuffix ends the line a worker prints after writing a scenario's
// outcome: "<id> done".
const doneSuffix = " done"

// beatEvery thins progress events into heartbeats: the first and last
// event of a stage always beat, the ones between every beatEvery-th. The
// runner needs one line per StallTimeout (default 30 s); a simulated minute
// is tens of microseconds, and each line is a write(2).
const beatEvery = 32

// Beat reports a scenario's progress to the worker loop, which turns some
// of the calls into heartbeat lines. Calls must be serialized.
type Beat func(stage string, done, total int)

// ScenarioFunc runs one scenario to its outcome, calling beat on every
// progress event of the run.
type ScenarioFunc func(sc *Scenario, beat Beat) (*analysis.Outcome, error)

// Serve is the scenario-worker loop: for each scenario.json path read from
// in (one per line) it loads the scenario, runs it, writes OutcomeFileName
// next to it atomically and prints "<id> done" to out. It returns the
// process exit status: core.ExitOK once in is exhausted, a core.Exit* code
// on the first failure (after printing the reason). Nothing of a finished
// scenario is kept for the next.
func Serve(in io.Reader, out io.Writer, run ScenarioFunc) int {
	lines := bufio.NewScanner(in)
	for lines.Scan() {
		path := strings.TrimSpace(lines.Text())
		if path == "" {
			continue
		}
		if err := serveOne(path, out, run); err != nil {
			fmt.Fprintf(out, "scenario: %v\n", err)
			return core.ExitCode(err)
		}
		// The scenario's whole heap is garbage now. Collect it before the
		// next one allocates, so a worker's footprint is one scenario's —
		// what a one-shot child's was — not one plus the leftovers.
		runtime.GC()
	}
	if err := lines.Err(); err != nil {
		fmt.Fprintf(out, "scenario: read scenario paths: %v\n", err)
		return core.ExitFailure
	}
	return core.ExitOK
}

func serveOne(scenPath string, out io.Writer, run ScenarioFunc) error {
	data, err := os.ReadFile(scenPath)
	if err != nil {
		return err
	}
	var sc Scenario
	if err := json.Unmarshal(data, &sc); err != nil {
		return fmt.Errorf("parse scenario %s: %w", scenPath, err)
	}
	// First heartbeat before any work: topology construction can take a
	// while in silence, and silence is what the runner kills for.
	fmt.Fprintf(out, "%s starting (%d VPs, %d minutes)\n", sc.ID, sc.VPs, sc.Minutes)
	lastStage := ""
	outcome, err := run(&sc, func(stage string, done, total int) {
		if stage != lastStage || done >= total || done%beatEvery == 0 {
			lastStage = stage
			fmt.Fprintf(out, "%s %s %d/%d\n", sc.ID, stage, done, total)
		}
	})
	if err != nil {
		return err
	}
	body, err := json.Marshal(outcome)
	if err != nil {
		return fmt.Errorf("encode outcome: %w", err)
	}
	if err := atomicio.WriteFileBytes(filepath.Join(filepath.Dir(scenPath), OutcomeFileName), body); err != nil {
		return err
	}
	fmt.Fprintf(out, "%s%s\n", sc.ID, doneSuffix)
	return nil
}

// Execute runs the scenario's simulation in this process — build the
// evaluator, run the event, measure, reduce to the outcome — reporting
// every simulated minute and measured vantage point to progress.
func (sc *Scenario) Execute(progress core.ProgressFunc) (*analysis.Outcome, error) {
	cfg, opts, err := sc.EngineConfig()
	if err != nil {
		return nil, err
	}
	ev, err := core.NewEvaluator(cfg, append(opts, core.WithProgress(progress))...)
	if err != nil {
		return nil, err
	}
	if err := ev.Run(); err != nil {
		return nil, err
	}
	d, err := ev.Measure()
	if err != nil {
		return nil, err
	}
	return analysis.New(ev, d).Outcome(analysis.DefaultOutcomeConfig(sc.Seed))
}

// worker is the runner's handle on one scenario worker process.
type worker struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   workerOutput
	// exited is closed once the process has been reaped and all of its
	// output delivered to out; waitErr is cmd.Wait's result from then on.
	exited  chan struct{}
	waitErr error
}

// startWorker launches `Bin BaseArgs... -`.
func (r *runner) startWorker() (*worker, error) {
	args := append(append([]string(nil), r.cfg.BaseArgs...), ServeStdin)
	w := &worker{cmd: exec.Command(r.cfg.Bin, args...), exited: make(chan struct{})}
	w.out.done = make(chan string, 1)
	w.cmd.Stdout = &w.out
	w.cmd.Stderr = &w.out
	stdin, err := w.cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("campaign: scenario worker stdin: %w", err)
	}
	w.stdin = stdin
	if err := w.cmd.Start(); err != nil {
		return nil, fmt.Errorf("campaign: start scenario worker: %w", err)
	}
	go func() {
		w.waitErr = w.cmd.Wait()
		close(w.exited)
	}()
	return w, nil
}

// kill ends the worker now, if it has not ended already, and reaps it.
func (w *worker) kill() {
	_ = w.cmd.Process.Kill() // "already finished" is the other acceptable answer
	<-w.exited
	_ = w.stdin.Close() // nothing is listening any more
}

// stop retires an idle worker: EOF on its stdin is the protocol's exit
// request. One that does not take it within a second is killed.
func (w *worker) stop() {
	_ = w.stdin.Close() // the worker's exit is what is waited for, not the pipe
	select {
	case <-w.exited:
	case <-time.After(time.Second):
		w.kill()
	}
}

// workerOutput collects a worker's stdout and stderr: every write is a
// liveness heartbeat, a bounded tail is kept for failure detail, and a
// "<id> done" line hands its id to the attempt waiting on done.
type workerOutput struct {
	lastBeat atomic.Int64
	// done carries the id of a completed scenario. One slot: the runner
	// sends a worker nothing new until it has taken the previous report.
	done chan string

	mu   sync.Mutex
	tail []byte
	line []byte // the current, still unterminated output line
}

// tailBytes bounds how much worker output is kept for failure detail.
const tailBytes = 2048

func (o *workerOutput) Write(p []byte) (int, error) {
	o.lastBeat.Store(nowNanos())
	o.mu.Lock()
	defer o.mu.Unlock()
	o.tail = append(o.tail, p...)
	if len(o.tail) > tailBytes {
		o.tail = append(o.tail[:0], o.tail[len(o.tail)-tailBytes:]...)
	}
	for _, b := range p {
		if b != '\n' {
			o.line = append(o.line, b)
			continue
		}
		if id, ok := strings.CutSuffix(string(o.line), doneSuffix); ok {
			select {
			case o.done <- id:
			default: // an unclaimed report is already waiting; the attempt fails on that one
			}
		}
		o.line = o.line[:0]
	}
	return len(p), nil
}

// begin readies the collector for a new attempt: an empty tail, no stale
// completion report, and a fresh liveness clock.
func (o *workerOutput) begin(now int64) {
	o.lastBeat.Store(now)
	o.mu.Lock()
	o.tail = o.tail[:0]
	o.mu.Unlock()
	select {
	case <-o.done:
	default:
	}
}

// suffix renders the kept tail for embedding in a failure detail.
func (o *workerOutput) suffix() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	s := strings.TrimSpace(string(o.tail))
	if s == "" {
		return ""
	}
	return "; child output tail: " + s
}
