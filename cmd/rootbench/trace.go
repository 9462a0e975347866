package main

import (
	"encoding/json"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/rootevent/anycastddos/internal/atomicio"
)

// span is one timed call into a layer. Names are "layer.operation"; Parent
// is the span that caused it (0 for a root). Times are nanoseconds since
// the tracer started.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the workload ends. A nil *tracer is
// the untraced run: every method is a no-op, so workload code is the same
// on both passes and the untraced pass pays a nil check per layer call —
// never per packet, where no spans are recorded at all.
type tracer struct {
	mu    sync.Mutex // progress and Logf hooks may call from engine goroutines
	t0    time.Time
	spans []span
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{t0: time.Now()}
}

// begin opens a span under parent and returns its id.
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNs: now, EndNs: now})
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// add records a span whose endpoints were observed elsewhere (progress
// callbacks, file timestamps).
func (t *tracer) add(parent int, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds(),
	})
}

// do times fn as one span.
func (t *tracer) do(parent int, name string, fn func() error) error {
	id := t.begin(parent, name)
	err := fn()
	t.end(id)
	return err
}

// seconds is a closed span's duration.
func (t *tracer) seconds(id int) float64 {
	s := t.spans[id-1]
	return float64(s.EndNs-s.StartNs) / 1e9
}

// timed runs fn as one root span and returns how long it took.
func (t *tracer) timed(name string, fn func() error) (float64, error) {
	id := t.begin(0, name)
	err := fn()
	t.end(id)
	return t.seconds(id), err
}

// meanSeconds is the mean duration of the spans with exactly this name.
func (t *tracer) meanSeconds(name string) float64 {
	var ns int64
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.EndNs - s.StartNs
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(ns) / 1e9 / float64(n)
}

// unitCount is how many traced units ran.
func (t *tracer) unitCount() int {
	n := 0
	for _, s := range t.spans {
		if s.Name == "rootbench.unit" {
			n++
		}
	}
	return n
}

// sumSecondsUnder totals spans with the name prefix that belong to units
// (the isolated loops are root spans and stay out).
func (t *tracer) sumSecondsUnder(prefix string) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Parent != 0 && strings.HasPrefix(s.Name, prefix) {
			ns += s.EndNs - s.StartNs
		}
	}
	return float64(ns) / 1e9
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its direct children cover (overlapping children, as
// with two parallel scenario slots, are counted once).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, edge), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.EndNs - s.StartNs) - covered
	}
	return self
}

// layerSelfSeconds sums self time by layer, the part of a span's name
// before the first dot.
func layerSelfSeconds(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += float64(self[s.ID]) / 1e9
	}
	return out
}

// selfShare is the share of the named spans' time that none of their
// children cover: what a sum check calls unattributed.
func selfShare(spans []span, name string) float64 {
	self := selfTimes(spans)
	var own, total int64
	for _, s := range spans {
		if s.Name == name {
			own += self[s.ID]
			total += s.EndNs - s.StartNs
		}
	}
	if total == 0 {
		return 0
	}
	return float64(own) / float64(total)
}

// write stores the spans as bench/out/trace-<workload>.json.
func (t *tracer) write(out, workload string) error {
	body, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return err
	}
	return atomicio.WriteFileBytes(filepath.Join(out, "trace-"+workload+".json"), append(body, '\n'))
}
