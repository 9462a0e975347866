// Package rssac produces RSSAC-002-style operational reports for the
// simulated root letters.
//
// RSSAC-002 specifies daily, per-letter statistics: query and response
// volumes, distinct-source counts, and query/response size distributions in
// 16-byte bins (§2.4.2, §3.1 of the paper). At event time only five letters
// (A, H, J, K, L) published this data, and reporting is best-effort — under
// attack, letters measure what they manage to serve, badly undercounting
// the offered load. Both properties matter for Table 3: the paper's
// lower/upper-bound event-size estimation method exists precisely because
// of them, and this package reproduces the inputs it needs.
package rssac

import (
	"fmt"

	"github.com/rootevent/anycastddos/internal/attack"
	"github.com/rootevent/anycastddos/internal/stats"
)

// SizeBins is the number of 16-byte histogram bins (covers 0..1023 bytes).
const SizeBins = 64

// SizeBinWidth is the RSSAC-002 size bin width in bytes.
const SizeBinWidth = 16

// MinutesPerDay is the number of reporting intervals in one daily report.
const MinutesPerDay = 24 * 60

// DayName formats a simulation day index as a date (day 0 = 2015-11-30).
func DayName(day int) string {
	switch day {
	case 0:
		return "2015-11-30"
	case 1:
		return "2015-12-01"
	default:
		return fmt.Sprintf("2015-11-30+%dd", day)
	}
}

// Report is one letter's daily report.
type Report struct {
	Letter        byte
	Day           int
	Queries       float64 // queries the letter measured (served, not offered)
	Responses     float64 // responses sent after RRL
	UniqueSources float64 // distinct source addresses seen
	QuerySizes    *stats.Histogram
	ResponseSizes *stats.Histogram
	// MissingMinutes counts the day's minutes with no measurement at all
	// (monitoring outages — the paper's §2.4 data holes). Queries and
	// Responses cover only the observed minutes; consumers comparing
	// volumes must use EstimatedQueries/EstimatedResponses or they will
	// mis-sum gapped days as low-traffic days.
	MissingMinutes int
}

// DayString returns the report's date.
func (r *Report) DayString() string { return DayName(r.Day) }

// CoverageFrac is the fraction of the day's minutes with measurements.
func (r *Report) CoverageFrac() float64 {
	observed := MinutesPerDay - r.MissingMinutes
	if observed < 0 {
		observed = 0
	}
	return float64(observed) / MinutesPerDay
}

// EstimatedQueries scales the measured query count up to a full day,
// assuming the unobserved minutes carried the mean observed rate. Equal
// to Queries when the day has no gaps; zero when it is entirely missing.
func (r *Report) EstimatedQueries() float64 {
	return scaleForCoverage(r.Queries, r.MissingMinutes)
}

// EstimatedResponses is EstimatedQueries for the response count.
func (r *Report) EstimatedResponses() float64 {
	return scaleForCoverage(r.Responses, r.MissingMinutes)
}

func scaleForCoverage(v float64, missing int) float64 {
	observed := MinutesPerDay - missing
	if missing <= 0 || observed <= 0 {
		return v
	}
	return v * MinutesPerDay / float64(observed)
}

// newSizeHistogram allocates an RSSAC-002 size histogram.
func newSizeHistogram() *stats.Histogram {
	return stats.NewHistogram(0, SizeBinWidth, SizeBins)
}

// legitQuerySizes spreads normal query traffic over realistic DNS message
// sizes (root queries are mostly 17-60 bytes; EDNS adds a tail).
var legitQuerySizes = []struct {
	bytes int
	frac  float64
}{
	{24, 0.15}, {30, 0.25}, {38, 0.25}, {45, 0.20}, {52, 0.10}, {70, 0.05},
}

// legitResponseSizes models the mixed referral/NXDOMAIN response sizes of
// normal root traffic.
var legitResponseSizes = []struct {
	bytes int
	frac  float64
}{
	{110, 0.20}, {250, 0.30}, {500, 0.30}, {750, 0.15}, {900, 0.05},
}

// Accumulator aggregates per-minute traffic summaries into daily reports.
type Accumulator struct {
	days    int
	mix     attack.SourceMix
	reports map[byte][]*Report
	// attackQueries tracks accepted attack queries per letter per day to
	// derive unique-source estimates; retryQueries tracks failover load
	// from other letters' resolver populations.
	attackQueries map[byte][]float64
	retryQueries  map[byte][]float64
	baselineIPs   float64
}

// NewAccumulator creates an accumulator covering the given number of days.
func NewAccumulator(days int, mix attack.SourceMix) *Accumulator {
	return &Accumulator{
		days:          days,
		mix:           mix,
		reports:       make(map[byte][]*Report),
		attackQueries: make(map[byte][]float64),
		retryQueries:  make(map[byte][]float64),
		baselineIPs:   2_900_000, // ~2.9M distinct resolvers/day (Table 3 baseline)
	}
}

func (a *Accumulator) letterReports(letter byte) []*Report {
	rs, ok := a.reports[letter]
	if !ok {
		rs = make([]*Report, a.days)
		for d := range rs {
			rs[d] = &Report{
				Letter: letter, Day: d,
				QuerySizes:    newSizeHistogram(),
				ResponseSizes: newSizeHistogram(),
			}
		}
		a.reports[letter] = rs
		a.attackQueries[letter] = make([]float64, a.days)
		a.retryQueries[letter] = make([]float64, a.days)
	}
	return rs
}

// Minute is one minute of measured (served) traffic at one letter.
type Minute struct {
	Minute int
	// LegitServedQPS and AttackServedQPS are query rates the letter
	// actually accepted (after ingress drops).
	LegitServedQPS  float64
	AttackServedQPS float64
	// RetryServedQPS is legitimate load that arrived because resolvers
	// failed over from other (attacked) letters — the "letter flips" of
	// §3.2.2. Retries come from resolvers that do not normally query
	// this letter, so they also inflate its distinct-source count.
	RetryServedQPS float64
	// ResponseQPS is the response rate after RRL suppression.
	ResponseQPS float64
	// Attack wire sizes for the active event (ignored when no attack).
	AttackQueryBytes    int
	AttackResponseBytes int
}

// RecordGap marks one minute of the day as unmeasured for a letter (the
// monitoring pipeline was down). Gapped minutes contribute nothing to
// the counts; they only raise MissingMinutes so consumers can correct.
func (a *Accumulator) RecordGap(letter byte, minute int) {
	if minute < 0 {
		return
	}
	day := minute / MinutesPerDay
	if day >= a.days {
		return
	}
	a.letterReports(letter)[day].MissingMinutes++
}

// Record folds one minute of traffic into the letter's daily report.
func (a *Accumulator) Record(letter byte, m Minute) {
	if m.Minute < 0 {
		return
	}
	day := m.Minute / MinutesPerDay
	if day >= a.days {
		return
	}
	rs := a.letterReports(letter)
	r := rs[day]
	legitQ := (m.LegitServedQPS + m.RetryServedQPS) * 60
	attackQ := m.AttackServedQPS * 60
	r.Queries += legitQ + attackQ
	r.Responses += m.ResponseQPS * 60
	a.attackQueries[letter][day] += attackQ
	a.retryQueries[letter][day] += m.RetryServedQPS * 60

	for _, sz := range legitQuerySizes {
		r.QuerySizes.Add(float64(sz.bytes), int64(legitQ*sz.frac))
	}
	if attackQ > 0 && m.AttackQueryBytes > 0 {
		r.QuerySizes.Add(float64(m.AttackQueryBytes), int64(attackQ))
	}
	// Responses: legit answered 1:1; attack responses are whatever RRL
	// let through beyond the legit share.
	legitResp := legitQ
	if m.ResponseQPS*60 < legitResp {
		legitResp = m.ResponseQPS * 60
	}
	attackResp := m.ResponseQPS*60 - legitResp
	for _, sz := range legitResponseSizes {
		r.ResponseSizes.Add(float64(sz.bytes), int64(legitResp*sz.frac))
	}
	if attackResp > 0 && m.AttackResponseBytes > 0 {
		r.ResponseSizes.Add(float64(m.AttackResponseBytes), int64(attackResp))
	}
}

// Finalize computes derived fields (unique sources) and returns the daily
// reports for a letter, or nil if the letter never recorded traffic.
func (a *Accumulator) Finalize(letter byte) []*Report {
	rs, ok := a.reports[letter]
	if !ok {
		return nil
	}
	for d, r := range rs {
		r.UniqueSources = a.baselineIPs + a.mix.ExpectedUniqueIPs(a.attackQueries[letter][d])
		// Failover traffic arrives from other letters' resolver
		// populations. The multiplier is calibrated to the paper's
		// observation that L-Root saw a 6-13x unique-IP increase while
		// its query rate grew only 1.66x (§3.2.2).
		if retry := a.retryQueries[letter][d]; retry > 0 {
			baseDay := r.Queries - retry - a.attackQueries[letter][d]
			if baseDay > 0 {
				r.UniqueSources += a.baselineIPs * 15 * retry / baseDay
			}
		}
	}
	return rs
}

// SyntheticBaseline fabricates a pre-event daily report for a letter
// running its normal load, used as the 7-day baseline of Table 3.
func SyntheticBaseline(letter byte, normalQPS float64, day int) *Report {
	r := &Report{
		Letter: letter, Day: day,
		Queries:       normalQPS * 86400,
		Responses:     normalQPS * 86400,
		UniqueSources: 2_900_000,
		QuerySizes:    newSizeHistogram(),
		ResponseSizes: newSizeHistogram(),
	}
	for _, sz := range legitQuerySizes {
		r.QuerySizes.Add(float64(sz.bytes), int64(r.Queries*sz.frac))
	}
	for _, sz := range legitResponseSizes {
		r.ResponseSizes.Add(float64(sz.bytes), int64(r.Responses*sz.frac))
	}
	return r
}

// MeanBaseline averages n synthetic baseline days — the "mean of the seven
// days before the event" of §3.1.
func MeanBaseline(letter byte, normalQPS float64, n int) *Report {
	if n < 1 {
		n = 1
	}
	// Baselines are deterministic per letter, so the mean of n equals one
	// day; the function exists to mirror the paper's method and to give
	// callers a place to add day-to-day jitter if they enable it.
	return SyntheticBaseline(letter, normalQPS, 0)
}

// GbpsFromQueries converts a query count over an interval into gigabits/s
// given a wire size in bytes (DNS payload; headers handled by caller).
func GbpsFromQueries(queries float64, wireBytes int, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return queries * float64(wireBytes+40) * 8 / seconds / 1e9 // +40 B IP/UDP headers and overhead (§3.1)
}
