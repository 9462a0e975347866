package main

import (
	"encoding/json"
	"fmt"
	"os"

	"github.com/rootevent/anycastddos/internal/stats"
)

// metricDef is one metric as BENCHMARK.json declares it. Bound and Better
// are only meaningful for end-to-end metrics.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the single place metric names, units and
// bounds are declared. The harness reads it rather than repeating it.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark definition: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(s.Workloads) == 0 || len(s.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s declares no workloads or no end-to-end metrics", path)
	}
	return &s, nil
}

func (s *benchSpec) workloadNames() []string {
	names := make([]string, len(s.Workloads))
	for i, w := range s.Workloads {
		names[i] = w.Name
	}
	return names
}

// checkDeclared holds a pass's output to the definition: every end-to-end
// metric must be present on an untraced pass, and nothing undeclared (or
// declared with another unit) may be emitted on either.
func (s *benchSpec) checkDeclared(r *result, traced bool) error {
	declared := map[string]string{}
	for _, d := range s.EndToEnd {
		declared[d.Name] = d.Unit
		if _, ok := r.Metrics[d.Name]; !traced && !ok {
			return fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
	}
	for _, d := range s.PerLayer {
		declared[d.Name] = d.Unit
	}
	for name, m := range r.Metrics {
		if unit, ok := declared[name]; !ok {
			return fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
		} else if unit != m.Unit {
			return fmt.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
		}
	}
	return nil
}

// contractResult is the one-line JSON object the benchmark driver reads:
// every end-to-end metric of an untraced pass, or every per-layer metric of
// a traced one. A layer the workload never enters did no work there: its
// metrics read 0.
func (s *benchSpec) contractResult(r *result, traced bool) map[string]any {
	defs := s.EndToEnd
	if traced {
		defs = s.PerLayer
	}
	metrics := make(map[string]metric, len(defs))
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			m = metric{0, d.Unit}
		}
		metrics[d.Name] = m
	}
	return map[string]any{
		"correct":   r.Correct,
		"attempted": max(r.Attempted, 1),
		"failed":    r.Failed,
		"metrics":   metrics,
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check is one fail-closed correctness check.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// result is what one workload pass reports.
type result struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Median is, for each timing reported as the fastest repetition, the
	// median of the repetitions.
	Median map[string]float64 `json:"median,omitempty"`
	// Spread is, for each metric reported over units, windows or
	// repetitions, the interquartile range of those samples over their
	// median.
	Spread map[string]float64 `json:"spread,omitempty"`
	// UnitWallUs and UnitCPUUs are the per-unit samples behind the two
	// per-operation costs, in run order.
	UnitWallUs []float64 `json:"unit_wall_us,omitempty"`
	UnitCPUUs  []float64 `json:"unit_cpu_us,omitempty"`
	// Samples is how many units, windows or probes stand behind a metric.
	Samples      map[string]int    `json:"samples,omitempty"`
	Fingerprints map[string]string `json:"fingerprints,omitempty"`
	Checks       []check           `json:"checks,omitempty"`
	// State says what the traffic crossed ("loopback", "in-process").
	State string `json:"state,omitempty"`
	// LayerSelfS is each layer's self time in the traced units: its spans
	// minus the part their children cover.
	LayerSelfS map[string]float64 `json:"layer_self_s,omitempty"`
}

func newResult() *result {
	return &result{
		Correct: true, Metrics: map[string]metric{}, Median: map[string]float64{}, Spread: map[string]float64{},
		Samples: map[string]int{}, Fingerprints: map[string]string{},
	}
}

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// setBest reports a timing as the fastest of its repetitions. Interference
// on a shared machine only ever adds time, in bursts that outlast a unit, so
// the fastest repetition is the steadiest estimate of what the work costs;
// the median, spread and count of the repetitions are recorded next to it.
func (r *result) setBest(name string, samples []float64, unit string) {
	r.set(name, fastest(samples), unit)
	r.Median[name] = stats.Median(samples)
	r.Spread[name] = spread(samples)
	r.Samples[name] = len(samples)
}

// setMedian reports a metric as the median of samples and records their
// spread and count next to it.
func (r *result) setMedian(name string, samples []float64, unit string) {
	r.set(name, stats.Median(samples), unit)
	r.Spread[name] = spread(samples)
	r.Samples[name] = len(samples)
}

// verify records one correctness check; a failed one fails the run. A check
// repeated on every unit is one entry that keeps its first failure.
func (r *result) verify(name string, ok bool, format string, args ...any) {
	var c *check
	for i := range r.Checks {
		if r.Checks[i].Name == name {
			c = &r.Checks[i]
		}
	}
	if c == nil {
		r.Checks = append(r.Checks, check{Name: name, OK: true})
		c = &r.Checks[len(r.Checks)-1]
	}
	if !ok && c.OK {
		c.OK, c.Detail = false, fmt.Sprintf(format, args...)
		r.Correct = false
	}
}

// verifyOp is verify for workloads whose operations are their checks: it
// also counts the check as attempted and, when it fails, as failed.
func (r *result) verifyOp(name string, ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
	}
	r.verify(name, ok, format, args...)
}

// merge folds a traced pass into the untraced pass of the same workload:
// end-to-end numbers stay the untraced ones.
func (r *result) merge(traced *result) {
	addMissing(r.Metrics, traced.Metrics)
	addMissing(r.Spread, traced.Spread)
	addMissing(r.Median, traced.Median)
	addMissing(r.Samples, traced.Samples)
	r.Correct = r.Correct && traced.Correct
	r.Checks = append(r.Checks, traced.Checks...)
	r.LayerSelfS = traced.LayerSelfS
}

// addMissing copies the entries of src whose key dst lacks.
func addMissing[V any](dst, src map[string]V) {
	for k, v := range src {
		if _, ok := dst[k]; !ok {
			dst[k] = v
		}
	}
}

// fastest is the smallest sample.
func fastest(samples []float64) float64 { return stats.Quantile(samples, 0) }

// spread is the interquartile range of samples as a share of their median.
func spread(samples []float64) float64 {
	m := stats.Median(samples)
	if len(samples) < 2 || m == 0 {
		return 0
	}
	return (stats.Quantile(samples, 0.75) - stats.Quantile(samples, 0.25)) / m
}
