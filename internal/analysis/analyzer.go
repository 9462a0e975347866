package analysis

import (
	"sync"

	"github.com/rootevent/anycastddos/internal/atlas"
	"github.com/rootevent/anycastddos/internal/core"
	"github.com/rootevent/anycastddos/internal/stats"
)

// Analyzer computes the paper's figures and tables from one completed
// simulation and its measurement dataset. Construct it once with New and
// call one method per experiment; methods are safe for concurrent use: the
// evaluator and dataset are only read, and the series several figures
// derive from are computed once under a lock and never modified after —
// whatever a method returns is the caller's own copy.
type Analyzer struct {
	ev *core.Evaluator
	d  *atlas.Dataset

	mu sync.Mutex
	// medianRTT holds each letter's per-bin median RTT (Figure4, DNSMON,
	// Outcome); catchments each letter's per-site VP counts from one
	// pass over its columns (Table2, Figures 5, 6, 14).
	medianRTT  map[byte]*stats.Series
	catchments map[byte][]*stats.Series
}

// New returns an Analyzer over a completed evaluator run and the dataset
// its Measure produced.
func New(ev *core.Evaluator, d *atlas.Dataset) *Analyzer {
	return &Analyzer{
		ev: ev, d: d,
		medianRTT:  map[byte]*stats.Series{},
		catchments: map[byte][]*stats.Series{},
	}
}

// medianRTTSeries returns the letter's shared median-RTT series; callers
// must not modify it.
func (a *Analyzer) medianRTTSeries(letter byte) (*stats.Series, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if s, ok := a.medianRTT[letter]; ok {
		return s, nil
	}
	s, err := a.d.MedianRTTSeries(letter)
	if err != nil {
		return nil, err
	}
	a.medianRTT[letter] = s
	return s, nil
}

// siteSeries returns the letter's shared per-site catchment series, indexed
// by site: one for each of the letter's nSites deployed sites, and for any
// higher site index the dataset holds. Callers must not modify them.
func (a *Analyzer) siteSeries(letter byte, nSites int) ([]*stats.Series, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if all, ok := a.catchments[letter]; ok {
		return all, nil
	}
	all, err := a.d.SiteSeriesAll(letter, nSites)
	if err != nil {
		return nil, err
	}
	a.catchments[letter] = all
	return all, nil
}
