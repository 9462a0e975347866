package analysis

import (
	"fmt"
	"sort"

	"github.com/rootevent/anycastddos/internal/attack"
	"github.com/rootevent/anycastddos/internal/rssac"
	"github.com/rootevent/anycastddos/internal/stats"
)

// Table2Row is one letter of Table 2.
type Table2Row struct {
	Letter         byte
	Operator       string
	SitesReported  int
	GlobalReported int
	LocalReported  int
	Unicast        bool
	PrimaryBackup  bool
	SitesObserved  int // distinct sites seen by >= 1 clean VP
}

// Table2 reproduces Table 2: reported architecture vs. sites observed
// through CHAOS measurements.
func (a *Analyzer) Table2() []Table2Row {
	var rows []Table2Row
	for _, l := range a.ev.Deployment.Letters {
		row := Table2Row{
			Letter: l.Letter, Operator: l.Operator,
			SitesReported: len(l.Sites),
			Unicast:       l.Unicast, PrimaryBackup: l.PrimaryBackup,
		}
		for _, s := range l.Sites {
			if s.Local {
				row.LocalReported++
			} else {
				row.GlobalReported++
			}
		}
		// A letter the dataset does not track was observed at no site.
		if series, err := a.siteSeries(l.Letter, len(l.Sites)); err == nil {
			for _, s := range series {
				if max, _, _ := s.Max(); max > 0 {
					row.SitesObserved++
				}
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// Table3Row holds one letter's event-traffic estimate for one event day.
type Table3Row struct {
	Letter        byte
	DeltaQueryMqs float64 // extra queries, Mq/s over the event window
	DeltaQueryGbs float64
	UniqueIPsM    float64 // millions
	UniqueRatio   float64 // vs baseline unique IPs
	DeltaRespMqs  float64
	DeltaRespGbs  float64
	BaselineMqs   float64
	Excluded      bool // excluded from bounds (not attacked, e.g. L)
}

// Table3Bounds carries the lower/scaled/upper event-size estimates.
type Table3Bounds struct {
	LowerQueryMqs, LowerQueryGbs   float64
	LowerRespMqs, LowerRespGbs     float64
	ScaledQueryMqs, ScaledQueryGbs float64
	ScaledRespMqs, ScaledRespGbs   float64
	UpperQueryMqs, UpperQueryGbs   float64
	UpperRespMqs, UpperRespGbs     float64
}

// Table3Result is the full Table 3 for one event.
type Table3Result struct {
	Event  attack.Event
	Rows   []Table3Row
	Bounds Table3Bounds
}

// Table3 reproduces the §3.1 estimation method: per-reporting-letter deltas
// against a 7-day baseline, a lower bound (sum of reporting letters), a
// scaled bound (corrected for attacked letters that did not report), and an
// upper bound assuming every attacked letter received A-Root's load.
func (a *Analyzer) Table3(eventIdx int) (*Table3Result, error) {
	ev := a.ev
	events := ev.Schedule().Events
	if eventIdx < 0 || eventIdx >= len(events) {
		return nil, fmt.Errorf("analysis: event %d out of range", eventIdx)
	}
	event := events[eventIdx]
	day := event.StartMinute / 1440
	eventSecs := float64(event.Duration() * 60)

	res := &Table3Result{Event: event}
	attackedReporting := 0
	totalAttacked := 0
	for _, l := range ev.Deployment.Letters {
		if ev.Schedule().Targeted(l.Letter) {
			totalAttacked++
		}
	}
	var aRow *Table3Row
	for _, l := range ev.Deployment.Letters {
		if !l.ReportsRSSAC {
			continue
		}
		reports := ev.RSSACReports(l.Letter)
		if reports == nil || day >= len(reports) {
			continue
		}
		r := reports[day]
		base := rssac.MeanBaseline(l.Letter, l.NormalQPS, 7)
		// Coverage-corrected volumes: a report with MonitorGap holes
		// would otherwise read as a low-traffic day and drag the bounds
		// down (identical to the raw counts on gap-free days).
		deltaQ := (r.EstimatedQueries() - base.Queries) / eventSecs
		deltaR := (r.EstimatedResponses() - base.Responses) / eventSecs
		if deltaQ < 0 {
			deltaQ = 0
		}
		if deltaR < 0 {
			deltaR = 0
		}
		row := Table3Row{
			Letter:        l.Letter,
			DeltaQueryMqs: deltaQ / 1e6,
			DeltaQueryGbs: rssac.GbpsFromQueries(deltaQ*eventSecs, event.QueryBytes, eventSecs),
			UniqueIPsM:    r.UniqueSources / 1e6,
			UniqueRatio:   r.UniqueSources / base.UniqueSources,
			DeltaRespMqs:  deltaR / 1e6,
			DeltaRespGbs:  rssac.GbpsFromQueries(deltaR*eventSecs, event.ResponseBytes, eventSecs),
			BaselineMqs:   base.Queries / 86400 / 1e6,
			Excluded:      !ev.Schedule().Targeted(l.Letter),
		}
		res.Rows = append(res.Rows, row)
		if !row.Excluded {
			attackedReporting++
			res.Bounds.LowerQueryMqs += row.DeltaQueryMqs
			res.Bounds.LowerQueryGbs += row.DeltaQueryGbs
			res.Bounds.LowerRespMqs += row.DeltaRespMqs
			res.Bounds.LowerRespGbs += row.DeltaRespGbs
		}
		if l.Letter == 'A' {
			aRow = &res.Rows[len(res.Rows)-1]
		}
	}
	if attackedReporting > 0 {
		scale := float64(totalAttacked) / float64(attackedReporting)
		res.Bounds.ScaledQueryMqs = res.Bounds.LowerQueryMqs * scale
		res.Bounds.ScaledQueryGbs = res.Bounds.LowerQueryGbs * scale
		res.Bounds.ScaledRespMqs = res.Bounds.LowerRespMqs * scale
		res.Bounds.ScaledRespGbs = res.Bounds.LowerRespGbs * scale
	}
	if aRow != nil {
		// Upper bound: every attacked letter received A-Root's measured
		// load (§3.1's equal-traffic assumption).
		n := float64(totalAttacked)
		res.Bounds.UpperQueryMqs = aRow.DeltaQueryMqs * n
		res.Bounds.UpperQueryGbs = aRow.DeltaQueryGbs * n
		res.Bounds.UpperRespMqs = aRow.DeltaRespMqs * n
		res.Bounds.UpperRespGbs = aRow.DeltaRespGbs * n
	}
	return res, nil
}

// SiteCorrelationResult is the §3.2.1 sites-vs-reachability correlation.
type SiteCorrelationResult struct {
	Fit stats.LinearFit
	// FitAttacked repeats the fit over attacked letters only: letters
	// that never saw event traffic (D, L, M) carry no information about
	// stress response and only add noise.
	FitAttacked stats.LinearFit
	Letters     []byte
	Sites       []float64
	WorstOK     []float64 // worst per-bin success fraction (min / median)
}

// SiteCorrelation computes the correlation the paper reports as R² = 0.87:
// letters with more sites retain more responding VPs at their worst moment.
// A-Root is excluded (probed too rarely), as in the paper.
func (a *Analyzer) SiteCorrelation() (*SiteCorrelationResult, error) {
	ev, d := a.ev, a.d
	res := &SiteCorrelationResult{}
	for _, l := range ev.Deployment.Letters {
		if l.Letter == 'A' {
			continue
		}
		s, err := d.SuccessSeries(l.Letter)
		if err != nil {
			return nil, err
		}
		med := s.Median()
		if med == 0 {
			continue
		}
		min, _, err := s.Min()
		if err != nil {
			return nil, err
		}
		res.Letters = append(res.Letters, l.Letter)
		res.Sites = append(res.Sites, float64(len(l.Sites)))
		res.WorstOK = append(res.WorstOK, min/med)
	}
	fit, err := stats.Linear(res.Sites, res.WorstOK)
	if err != nil {
		return nil, err
	}
	res.Fit = fit
	var ax, ay []float64
	for i, l := range res.Letters {
		if ev.Schedule().Targeted(l) {
			ax = append(ax, res.Sites[i])
			ay = append(ay, res.WorstOK[i])
		}
	}
	if fitA, err := stats.Linear(ax, ay); err == nil {
		res.FitAttacked = fitA
	}
	return res, nil
}

// LetterFlipsResult captures §3.2.2: load increases at an unattacked letter
// as resolvers fail over to it.
type LetterFlipsResult struct {
	Letter        byte
	NormalQPS     float64
	PeakEventQPS  float64
	IncreaseRatio float64 // peak event load / normal
	Event2Ratio   float64 // event-2 mean load / normal (paper: 1.66x at L)
}

// LetterFlips measures failover load at an unattacked letter (default L).
func (a *Analyzer) LetterFlips(letter byte) (*LetterFlipsResult, error) {
	ev := a.ev
	l, ok := ev.Deployment.Letter(letter)
	if !ok {
		return nil, fmt.Errorf("analysis: unknown letter %c", letter)
	}
	legit, _, retry, _, err := ev.LetterServedSeries(letter)
	if err != nil {
		return nil, err
	}
	res := &LetterFlipsResult{Letter: letter, NormalQPS: l.NormalQPS}
	var ev2Sum float64
	ev2N := 0
	for m := range legit {
		total := legit[m] + retry[m]
		if total > res.PeakEventQPS {
			res.PeakEventQPS = total
		}
		if m >= attack.Event2Start && m < attack.Event2End {
			ev2Sum += total
			ev2N++
		}
	}
	if l.NormalQPS > 0 {
		res.IncreaseRatio = res.PeakEventQPS / l.NormalQPS
		if ev2N > 0 {
			res.Event2Ratio = ev2Sum / float64(ev2N) / l.NormalQPS
		}
	}
	return res, nil
}

// sortedSiteIndexesByMedian orders a letter's sites by median VP count
// (descending), mirroring the ordering of Figures 5 and 6; series[i] is
// site i's catchment series. It returns the order and each site's median.
func sortedSiteIndexesByMedian(series []*stats.Series) ([]int, []float64) {
	medians := make([]float64, len(series))
	idx := make([]int, len(series))
	for si, s := range series {
		medians[si] = s.Median()
		idx[si] = si
	}
	sort.SliceStable(idx, func(a, b int) bool { return medians[idx[a]] > medians[idx[b]] })
	return idx, medians
}
