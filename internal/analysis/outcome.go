package analysis

import (
	"fmt"

	"github.com/rootevent/anycastddos/internal/stats"
)

// Outcome condenses one completed scenario run into the campaign-level
// metrics the scenario-grid runner aggregates: per-letter availability and
// RTT inflation, the control-plane churn the defense caused, and the
// end-user view through caching resolvers. Every field is a deterministic
// function of the run (same seed, same outcome, bit for bit), which is what
// lets a resumed campaign reuse outcomes recorded before a crash and still
// emit a byte-identical report.
type Outcome struct {
	// Letters maps each deployed letter (as a one-byte string, for JSON) to
	// its summary. encoding/json sorts map keys, so the serialized form is
	// canonical.
	Letters map[string]LetterOutcome `json:"letters"`

	// MinEventAvailability is the worst per-letter availability during the
	// attack windows — the paper's headline per-letter damage number.
	MinEventAvailability float64 `json:"min_event_availability"`
	// MeanEventAvailability averages event availability over the letters.
	MeanEventAvailability float64 `json:"mean_event_availability"`
	// MaxRTTInflation is the worst per-letter event/baseline median-RTT
	// ratio (1 = no inflation observed).
	MaxRTTInflation float64 `json:"max_rtt_inflation"`
	// RouteChanges totals BGP route changes seen at the collector peers —
	// the control-plane cost of withdraw-style defenses.
	RouteChanges int `json:"route_changes"`

	// User is the resolver-population view (§2.3), nil when the outcome was
	// extracted without the user-impact experiment.
	User *UserOutcome `json:"user,omitempty"`
}

// LetterOutcome is one letter's scenario summary.
type LetterOutcome struct {
	// OverallAvailability is the fraction of (VP, bin) cells with a
	// successful probe across the whole run.
	OverallAvailability float64 `json:"overall_availability"`
	// EventAvailability restricts that to the attack windows; 1 when the
	// scenario has no event bins.
	EventAvailability float64 `json:"event_availability"`
	// BaselineMedianRTTMs / EventMedianRTTMs are median per-bin median RTTs
	// outside and inside the attack windows.
	BaselineMedianRTTMs float64 `json:"baseline_median_rtt_ms"`
	EventMedianRTTMs    float64 `json:"event_median_rtt_ms"`
	// RTTInflation is EventMedianRTTMs / BaselineMedianRTTMs, 1 when either
	// side is unobserved.
	RTTInflation float64 `json:"rtt_inflation"`
}

// UserOutcome summarizes the end-user resolver experiment.
type UserOutcome struct {
	// WorstBinFailFrac is the worst per-bin fraction of user queries that
	// exhausted every retry.
	WorstBinFailFrac float64 `json:"worst_bin_fail_frac"`
	// MeanLatencyMs averages the per-bin mean resolution latency.
	MeanLatencyMs float64 `json:"mean_latency_ms"`
	// WorstBinLatencyMs is the worst per-bin mean latency.
	WorstBinLatencyMs float64 `json:"worst_bin_latency_ms"`
	// CacheHitFrac is the fraction of user queries answered from cache.
	CacheHitFrac float64 `json:"cache_hit_frac"`
}

// OutcomeConfig tunes outcome extraction. The zero value skips the
// user-impact experiment; DefaultOutcomeConfig enables a small, fast
// resolver population.
type OutcomeConfig struct {
	// User, when non-nil, runs the resolver-population experiment with this
	// configuration and fills Outcome.User.
	User *UserImpactConfig
}

// DefaultOutcomeConfig extracts the full outcome with a resolver
// population small enough for grid sweeps (a few thousand user queries).
func DefaultOutcomeConfig(seed int64) OutcomeConfig {
	u := DefaultUserImpactConfig(seed)
	u.Resolvers = 60
	u.QueriesPerBin = 8
	u.Domains = 150
	return OutcomeConfig{User: &u}
}

// Outcome extracts the campaign metrics from the completed run.
func (a *Analyzer) Outcome(cfg OutcomeConfig) (*Outcome, error) {
	ev, d := a.ev, a.d
	active := float64(d.NumVPs - d.NumExcluded())
	if active == 0 {
		return nil, fmt.Errorf("analysis: outcome needs at least one active VP")
	}
	out := &Outcome{
		Letters:              map[string]LetterOutcome{},
		MinEventAvailability: 1,
		MaxRTTInflation:      1,
	}
	letters := ev.Deployment.SortedLetters()
	var eventSum float64
	for _, lb := range letters {
		succ, err := d.SuccessSeries(lb)
		if err != nil {
			return nil, err
		}
		rtt, err := a.medianRTTSeries(lb)
		if err != nil {
			return nil, err
		}
		var lo LetterOutcome
		var allSum, evSum float64
		var evBins int
		var baseRTTs, evRTTs []float64
		for b, v := range succ.Values {
			frac := v / active
			allSum += frac
			if ev.Schedule().Active(succ.MinuteFor(b)) >= 0 {
				evSum += frac
				evBins++
				evRTTs = append(evRTTs, rtt.Values[b])
			} else {
				baseRTTs = append(baseRTTs, rtt.Values[b])
			}
		}
		if len(succ.Values) > 0 {
			lo.OverallAvailability = allSum / float64(len(succ.Values))
		}
		lo.EventAvailability = 1
		if evBins > 0 {
			lo.EventAvailability = evSum / float64(evBins)
		}
		lo.BaselineMedianRTTMs = stats.Median(baseRTTs)
		lo.EventMedianRTTMs = stats.Median(evRTTs)
		lo.RTTInflation = 1
		if evBins > 0 && lo.BaselineMedianRTTMs > 0 {
			lo.RTTInflation = lo.EventMedianRTTMs / lo.BaselineMedianRTTMs
		}
		out.Letters[string(lb)] = lo
		eventSum += lo.EventAvailability
		if lo.EventAvailability < out.MinEventAvailability {
			out.MinEventAvailability = lo.EventAvailability
		}
		if lo.RTTInflation > out.MaxRTTInflation {
			out.MaxRTTInflation = lo.RTTInflation
		}
	}
	if len(letters) > 0 {
		out.MeanEventAvailability = eventSum / float64(len(letters))
	} else {
		out.MeanEventAvailability = 1
	}

	// Total control-plane churn; iterate the deployment's sorted letter
	// order (not the map) so the float accumulation order is fixed.
	fig9 := a.Figure9()
	for _, lb := range letters {
		if s, ok := fig9[lb]; ok {
			for _, v := range s.Values {
				out.RouteChanges += int(v)
			}
		}
	}

	if cfg.User != nil {
		res, err := a.UserImpact(*cfg.User)
		if err != nil {
			return nil, err
		}
		u := &UserOutcome{CacheHitFrac: res.CacheHitFrac}
		u.WorstBinFailFrac, _, _ = maxOrZero(res.FailFrac)
		u.WorstBinLatencyMs, _, _ = maxOrZero(res.MeanLatencyMs)
		u.MeanLatencyMs = stats.Mean(res.MeanLatencyMs.Values)
		out.User = u
	}
	return out, nil
}

// maxOrZero is Series.Max with an empty series mapped to zero instead of
// an error, so a degenerate (zero-bin) scenario still yields an outcome.
func maxOrZero(s *stats.Series) (float64, int, error) {
	v, i, err := s.Max()
	if err != nil {
		return 0, 0, nil
	}
	return v, i, nil
}
