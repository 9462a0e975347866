package core

import (
	"context"
	"runtime"

	"github.com/rootevent/anycastddos/internal/attack"
	"github.com/rootevent/anycastddos/internal/faults"
)

// Stage names reported through Progress.
const (
	StageRun     = "run"     // the minute-by-minute event simulation
	StageMeasure = "measure" // the Atlas measurement campaign
)

// Progress is one progress report from a running evaluator stage.
type Progress struct {
	Stage string // StageRun or StageMeasure
	Done  int    // minutes simulated / VPs measured so far
	Total int    // total minutes / VPs in the stage
}

// ProgressFunc receives progress reports. During StageRun it is called from
// the coordinating goroutine at the per-minute barrier, where no worker is
// running — the evaluator's accessors are safe to call from inside it.
// During StageMeasure it may be called from any measurement shard (calls
// are serialized, but not pinned to one goroutine).
type ProgressFunc func(Progress)

// options collects the functional-option state of an Evaluator.
type options struct {
	workers  int // 0 = auto (GOMAXPROCS), otherwise an explicit count
	ctx      context.Context
	progress ProgressFunc
	schedule *attack.Schedule
	faults   *faults.Plan
	// checkpointDir enables periodic checkpoints; checkpointEvery is
	// the minute stride between them.
	checkpointDir   string
	checkpointEvery int
}

func defaultOptions() options {
	return options{ctx: context.Background()}
}

// resolveWorkers maps the configured worker count to a concrete one.
func (o *options) resolveWorkers() int {
	if o.workers > 0 {
		return o.workers
	}
	return runtime.GOMAXPROCS(0)
}

// Option configures an Evaluator beyond the Config struct. Options are the
// additive half of the API: the Config struct keeps describing *what* to
// simulate, options describe *how* to execute it.
type Option func(*options)

// WithWorkers sets the number of worker goroutines used by Run (letters
// re-routed concurrently within a minute) and Measure (VP shards).
// n <= 0 selects GOMAXPROCS. Output is byte-identical for every worker
// count at a given seed.
func WithWorkers(n int) Option {
	return func(o *options) {
		if n < 0 {
			n = 0
		}
		o.workers = n
	}
}

// WithContext attaches a context to the evaluator: Run and Measure (the
// context-free forms) honor it for cancellation. RunContext and
// MeasureContext override it per call.
func WithContext(ctx context.Context) Option {
	return func(o *options) {
		if ctx != nil {
			o.ctx = ctx
		}
	}
}

// WithProgress registers a callback receiving per-minute (Run) and per-VP
// (Measure) progress reports.
func WithProgress(fn ProgressFunc) Option {
	return func(o *options) { o.progress = fn }
}

// WithSchedule selects the attack scenario; without it the engine runs the
// paper's Nov 2015 events (attack.Nov2015Schedule).
func WithSchedule(s *attack.Schedule) Option {
	return func(o *options) { o.schedule = s }
}

// WithCheckpoint makes the engine's state durable under dir every everyN
// simulated minutes (everyN < 1 selects the default of 10). Each checkpoint
// appends one checksummed, fsynced record to the directory's log through
// the internal/checkpoint package — only what the run added since the
// previous record, so its cost does not grow with the minute — and a killed
// process leaves a log ResumeRun can fold, however the kill tore its tail.
// A run from minute 0 replaces whatever log dir held; a resumed run
// continues it. Nothing is opened or created before the first checkpoint.
// Checkpointing never perturbs the simulation: a checkpointed run's output
// is byte-identical to the same run without WithCheckpoint.
func WithCheckpoint(dir string, everyN int) Option {
	return func(o *options) {
		o.checkpointDir = dir
		if everyN < 1 {
			everyN = 10
		}
		o.checkpointEvery = everyN
	}
}

// WithFaults injects a deterministic fault plan into the run: site
// outages and link flaps are applied to the announcement state before
// each minute's routing, capacity degrades and loss bursts inside the
// queue model, VP churn in the measurement plane, and monitor gaps in
// RSSAC recording. Fault effects are pure per-letter functions of the
// plan, so worker-count equivalence is preserved: the same plan and seed
// produce byte-identical output at any worker count. A nil plan disables
// injection.
func WithFaults(p *faults.Plan) Option {
	return func(o *options) { o.faults = p }
}
