package main

import (
	"runtime"
	"time"
)

// unit is one repetition of a workload's fixed-size piece of work. A
// workload is its unit repeated for about -seconds seconds; every timing it
// reports is the fastest unit's, which is what keeps the noisy stretches of
// a shared machine out of the result.
type unit struct {
	I int // 0-based repetition index
	// Tr is nil on untraced units. A traced pass alternates untraced and
	// traced units so the two are compared under the same conditions.
	Tr *tracer
	// Span is the span layer calls hang under (0 when untraced): the unit's
	// root span, and between start and stop its timed section.
	Span int

	root         int
	withChildren bool
	wall0        time.Time
	cpu0         float64
	mem0         runtime.MemStats
	wall, cpu    float64
	mem          memDelta
}

// start begins the timed section: everything before it in the unit is
// set-up, everything after stop is verification.
func (u *unit) start() {
	if u.Tr != nil {
		u.Span = u.Tr.begin(u.root, "rootbench.timed")
	}
	u.mem0 = readMem()
	u.cpu0 = cpuSeconds(u.withChildren)
	u.wall0 = time.Now()
}

func (u *unit) stop() {
	u.wall = time.Since(u.wall0).Seconds()
	if u.Tr != nil {
		u.Tr.end(u.Span)
		u.Span = u.root
	}
	u.cpu = cpuSeconds(u.withChildren) - u.cpu0
	u.mem = memSince(u.mem0)
}

// unitStats is what a run of units measured. Per-op samples hold one value
// per unit; the traced pass keeps its traced units apart.
type unitStats struct {
	wallUs, cpuUs []float64 // untraced units, µs per operation
	tracedWallUs  []float64 // traced units
	ops           int64     // operations in untraced units
	mem           memDelta  // allocation and GC totals over untraced units
}

// runUnits repeats fn for about p.Seconds, at least minUnits times (twice
// that on a traced pass, which needs both kinds). Each unit follows a
// forced GC; workloads run their own discarded warm-up before calling this.
func runUnits(p params, tr *tracer, withChildren bool, fn func(u *unit) (ops int64, err error)) (*unitStats, error) {
	const minUnits = 3
	need := minUnits
	if tr != nil {
		need *= 2
	}
	st := &unitStats{}
	begin := time.Now()
	for i := 0; i < need || time.Since(begin).Seconds() < p.Seconds; i++ {
		u := &unit{I: i, withChildren: withChildren}
		traced := tr != nil && i%2 == 1
		if traced {
			u.Tr = tr
			u.root = tr.begin(0, "rootbench.unit")
			u.Span = u.root
		}
		runtime.GC()
		ops, err := fn(u)
		if traced {
			tr.end(u.root)
		}
		if err != nil {
			return nil, err
		}
		if traced {
			st.tracedWallUs = append(st.tracedWallUs, u.wall*1e6/float64(ops))
			continue
		}
		st.wallUs = append(st.wallUs, u.wall*1e6/float64(ops))
		st.cpuUs = append(st.cpuUs, u.cpu*1e6/float64(ops))
		st.ops += ops
		st.mem.add(u.mem)
	}
	return st, nil
}

// report writes the metrics every workload shares: the end-to-end per-op
// costs on an untraced pass; on a traced pass the allocation counters of
// its untraced units and what tracing cost.
func (st *unitStats) report(r *result, traced bool) {
	if !traced {
		r.setBest("wall_us_per_op", st.wallUs, "us")
		r.setBest("cpu_us_per_op", st.cpuUs, "us")
		r.UnitWallUs, r.UnitCPUUs = st.wallUs, st.cpuUs
		return
	}
	r.set("mem.allocs_per_op", float64(st.mem.Mallocs)/float64(st.ops), "count")
	r.set("mem.alloc_bytes_per_op", float64(st.mem.Bytes)/float64(st.ops), "B")
	r.set("trace.overhead_frac", fastest(st.tracedWallUs)/fastest(st.wallUs)-1, "frac")
	r.Samples["trace.overhead_frac"] = len(st.tracedWallUs)
}

// setupTimer collects set-up time samples; setup_s is the fastest.
type setupTimer struct{ samples []float64 }

// repeat runs build as a workload's whole set-up at least setupReps times —
// more, up to 50, while they fit in half a second: the quicker a set-up,
// the more samples it takes to find its undisturbed time — tearing down
// every result but the last.
func (s *setupTimer) repeat(build, teardown func() error) error {
	begin := time.Now()
	for i := 0; i < setupReps || (i < 50 && time.Since(begin) < 500*time.Millisecond); i++ {
		if i > 0 {
			if err := teardown(); err != nil {
				return err
			}
			// Discarded set-ups must not pile up into the workload's peak RSS.
			runtime.GC()
		}
		if err := s.time(build); err != nil {
			return err
		}
	}
	return nil
}

// time runs fn as one set-up repetition.
func (s *setupTimer) time(fn func() error) error {
	start := time.Now()
	err := fn()
	s.samples = append(s.samples, time.Since(start).Seconds())
	return err
}

func (s *setupTimer) report(r *result) { r.setBest("setup_s", s.samples, "s") }
