package campaign

// The campaign report: every grid scenario in expansion order with its
// terminal status, plus an aggregate over whatever completed. The report
// degrades instead of failing — quarantined scenarios appear with their
// failure class, pending ones (a canceled campaign) as pending — and it
// contains only deterministic facts: recorded outcomes, IDs, classes.
// Attempt counts, backoff timings, and failure details stay in the
// ledger, which is what keeps a resumed campaign's report byte-identical
// to an uninterrupted one.

import (
	"encoding/json"
	"fmt"

	"github.com/rootevent/anycastddos/internal/analysis"
	"github.com/rootevent/anycastddos/internal/atomicio"
)

// Scenario terminal statuses in the report.
const (
	StatusCompleted   = "completed"
	StatusQuarantined = "quarantined"
	StatusPending     = "pending"
)

// Report is the aggregated campaign result (campaign.json).
type Report struct {
	Name       string `json:"name"`
	SpecDigest string `json:"spec_digest"`

	GridSize    int `json:"grid_size"`
	Completed   int `json:"completed"`
	Quarantined int `json:"quarantined"`
	Pending     int `json:"pending"`

	// Scenarios lists every grid point in expansion order.
	Scenarios []ScenarioResult `json:"scenarios"`

	// Aggregate summarizes the completed scenarios; nil when none
	// completed — a fully-degraded campaign still emits a valid report.
	Aggregate *Aggregate `json:"aggregate,omitempty"`
}

// ScenarioResult is one grid point's terminal state.
type ScenarioResult struct {
	ID    string `json:"id"`
	Index int    `json:"index"`

	Schedule      string  `json:"schedule"`
	Intensity     float64 `json:"intensity"`
	DurationScale float64 `json:"duration_scale"`
	Target        string  `json:"target"`
	Defense       string  `json:"defense"`
	Faults        string  `json:"faults"`
	Seed          int64   `json:"seed"`

	// Status is completed, quarantined, or pending.
	Status string `json:"status"`
	// FailureClass is the quarantine classification (panic, timeout,
	// stall, canceled, exit:N, signal, bad-outcome).
	FailureClass string `json:"failure_class,omitempty"`
	// Outcome is the scenario's analysis.Outcome, present when completed.
	Outcome json.RawMessage `json:"outcome,omitempty"`
}

// Aggregate condenses the completed scenarios' outcomes.
type Aggregate struct {
	// MinEventAvailability is the worst per-letter event availability seen
	// across all completed scenarios.
	MinEventAvailability float64 `json:"min_event_availability"`
	// MeanEventAvailability averages the scenarios' mean event
	// availability.
	MeanEventAvailability float64 `json:"mean_event_availability"`
	// MaxRTTInflation is the worst RTT inflation across scenarios.
	MaxRTTInflation float64 `json:"max_rtt_inflation"`
	// TotalRouteChanges sums control-plane churn across scenarios.
	TotalRouteChanges int `json:"total_route_changes"`
	// WorstUserFailFrac is the worst per-bin user query failure fraction
	// across scenarios that ran the user-impact experiment.
	WorstUserFailFrac float64 `json:"worst_user_fail_frac"`
}

// BuildReport assembles the report for the expanded grid from replayed (or
// live) campaign state. Scenario order is grid expansion order, and
// recorded outcomes are embedded as recorded, so the same terminal state
// always serializes to the same bytes.
func BuildReport(spec *Spec, scenarios []Scenario, st *State) (*Report, error) {
	r := &Report{
		Name:       spec.Name,
		SpecDigest: st.SpecDigest,
		GridSize:   len(scenarios),
		Scenarios:  make([]ScenarioResult, 0, len(scenarios)),
	}
	var agg Aggregate
	aggInit := false
	for i := range scenarios {
		sc := &scenarios[i]
		res := ScenarioResult{
			ID:            sc.ID,
			Index:         sc.Index,
			Schedule:      sc.Schedule,
			Intensity:     sc.Intensity,
			DurationScale: sc.DurationScale,
			Target:        sc.Target,
			Defense:       sc.Defense,
			Faults:        sc.Faults,
			Seed:          sc.Seed,
		}
		if outcome, ok := st.Done[sc.ID]; ok {
			res.Status = StatusCompleted
			res.Outcome = outcome
			var out analysis.Outcome
			if err := json.Unmarshal(outcome, &out); err != nil {
				return nil, fmt.Errorf("campaign: recorded outcome for %s does not parse: %w", sc.ID, err)
			}
			if !aggInit {
				aggInit = true
				agg.MinEventAvailability = out.MinEventAvailability
				agg.MaxRTTInflation = out.MaxRTTInflation
			} else {
				if out.MinEventAvailability < agg.MinEventAvailability {
					agg.MinEventAvailability = out.MinEventAvailability
				}
				if out.MaxRTTInflation > agg.MaxRTTInflation {
					agg.MaxRTTInflation = out.MaxRTTInflation
				}
			}
			agg.MeanEventAvailability += out.MeanEventAvailability
			agg.TotalRouteChanges += out.RouteChanges
			if out.User != nil && out.User.WorstBinFailFrac > agg.WorstUserFailFrac {
				agg.WorstUserFailFrac = out.User.WorstBinFailFrac
			}
			r.Completed++
		} else if q, ok := st.Quarantined[sc.ID]; ok {
			res.Status = StatusQuarantined
			res.FailureClass = q.Class
			r.Quarantined++
		} else {
			res.Status = StatusPending
			r.Pending++
		}
		r.Scenarios = append(r.Scenarios, res)
	}
	if r.Completed > 0 {
		agg.MeanEventAvailability /= float64(r.Completed)
		r.Aggregate = &agg
	}
	return r, nil
}

// WriteReport writes the report atomically as indented JSON.
func WriteReport(path string, r *Report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("campaign: encode report: %w", err)
	}
	return atomicio.WriteFileBytes(path, append(data, '\n'))
}
