package analysis

import "github.com/rootevent/anycastddos/internal/core"

// PolicyAblationRow scores one deployment-wide policy over the full
// two-day event.
type PolicyAblationRow struct {
	Policy string
	// ServedLegitFrac is served / offered legitimate queries across the
	// attacked letters during event windows.
	ServedLegitFrac float64
	// WorstMinuteFrac is the worst single event minute.
	WorstMinuteFrac float64
	// RouteChangeCount is total BGP updates seen at the collectors.
	RouteChangeCount int
}

// ScorePolicy scores a completed run under the row label policy — one row
// of the §2.2 trade-off at the scale of the whole root system. It needs no
// measurement campaign: the simulation's own served counters are the
// metric.
func ScorePolicy(policy string, ev *core.Evaluator) (PolicyAblationRow, error) {
	row := PolicyAblationRow{Policy: policy, WorstMinuteFrac: 1}
	var served, offered float64
	for _, l := range ev.Deployment.Letters {
		if !ev.Schedule().Targeted(l.Letter) {
			continue
		}
		legit, _, _, _, err := ev.LetterServedSeries(l.Letter)
		if err != nil {
			return PolicyAblationRow{}, err
		}
		for m, v := range legit {
			if ev.Schedule().Active(m) < 0 {
				continue
			}
			served += v
			offered += l.NormalQPS
			if frac := v / l.NormalQPS; frac < row.WorstMinuteFrac {
				row.WorstMinuteFrac = frac
			}
		}
	}
	if offered > 0 {
		row.ServedLegitFrac = served / offered
	}
	row.RouteChangeCount = len(ev.Collector.Updates())
	return row, nil
}
