package analysis

import (
	"fmt"
	"sort"

	"github.com/rootevent/anycastddos/internal/attack"
	"github.com/rootevent/anycastddos/internal/stats"
)

// DNSMONRow summarizes one letter's availability the way RIPE's DNSMON
// dashboard does (§2.4.1 cites DNSMON as the public face of this data):
// per-letter probe success percentages overall and during the events.
type DNSMONRow struct {
	Letter        byte
	OverallOKPct  float64 // fraction of (VP, bin) cells with a success
	EventOKPct    float64 // same, restricted to the event windows
	WorstBinPct   float64 // worst single bin
	MedianRTTms   float64
	EventRTTp90ms float64 // 90th percentile of event-bin median RTTs
}

// DNSMON computes the dashboard table from the dataset.
func (a *Analyzer) DNSMON() ([]DNSMONRow, error) {
	ev, d := a.ev, a.d
	var rows []DNSMONRow
	for _, lb := range ev.Deployment.SortedLetters() {
		if lb == 'A' {
			continue // probed too rarely during the events
		}
		succ, err := d.SuccessSeries(lb)
		if err != nil {
			return nil, err
		}
		rtt, err := a.medianRTTSeries(lb)
		if err != nil {
			return nil, err
		}
		active := float64(d.NumVPs - d.NumExcluded())
		if active == 0 {
			return nil, fmt.Errorf("analysis: no active VPs")
		}
		row := DNSMONRow{Letter: lb, MedianRTTms: rtt.Median(), WorstBinPct: 100}
		var total, eventTotal float64
		var bins, eventBins int
		var eventRTTs []float64
		for b, v := range succ.Values {
			pct := v / active * 100
			total += pct
			bins++
			if pct < row.WorstBinPct {
				row.WorstBinPct = pct
			}
			if ev.Schedule().Active(succ.MinuteFor(b)) >= 0 {
				eventTotal += pct
				eventBins++
				eventRTTs = append(eventRTTs, rtt.Values[b])
			}
		}
		if bins > 0 {
			row.OverallOKPct = total / float64(bins)
		}
		if eventBins > 0 {
			row.EventOKPct = eventTotal / float64(eventBins)
			row.EventRTTp90ms = stats.Quantile(eventRTTs, 0.9)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// EventWindow is one detected stress interval.
type EventWindow struct {
	StartMinute int
	EndMinute   int
	// Letters affected (success dropped below the detection threshold).
	Letters []byte
}

// DetectEvents finds attack windows from the measurement data alone —
// without being told when the events happened — by flagging bins where a
// letter's success count drops more than `drop` (fraction) below its own
// median, and merging bins where at least minLetters letters are flagged.
// The paper takes the windows from operator reports; this detector shows
// they are recoverable from the public measurements.
func (a *Analyzer) DetectEvents(drop float64, minLetters int) ([]EventWindow, error) {
	ev, d := a.ev, a.d
	if drop <= 0 || drop >= 1 || minLetters < 1 {
		return nil, fmt.Errorf("analysis: bad detector parameters drop=%v minLetters=%d", drop, minLetters)
	}
	type binHit struct {
		letters []byte
	}
	hits := make([]binHit, d.Bins)
	for _, lb := range ev.Deployment.SortedLetters() {
		if lb == 'A' {
			continue
		}
		succ, err := d.SuccessSeries(lb)
		if err != nil {
			return nil, err
		}
		med := succ.Median()
		if med == 0 {
			continue
		}
		for b, v := range succ.Values {
			if (med-v)/med >= drop {
				hits[b].letters = append(hits[b].letters, lb)
			}
		}
	}
	var windows []EventWindow
	inWindow := false
	var cur EventWindow
	affected := map[byte]bool{}
	flush := func(endBin int) {
		if !inWindow {
			return
		}
		cur.EndMinute = d.StartMinute + endBin*d.BinMinutes
		letters := make([]byte, 0, len(affected))
		for l := range affected {
			letters = append(letters, l)
		}
		sort.Slice(letters, func(i, j int) bool { return letters[i] < letters[j] })
		cur.Letters = letters
		windows = append(windows, cur)
		inWindow = false
		affected = map[byte]bool{}
	}
	for b := 0; b < d.Bins; b++ {
		if len(hits[b].letters) >= minLetters {
			if !inWindow {
				inWindow = true
				cur = EventWindow{StartMinute: d.StartMinute + b*d.BinMinutes}
			}
			for _, l := range hits[b].letters {
				affected[l] = true
			}
		} else if inWindow {
			flush(b)
		}
	}
	flush(d.Bins)
	return windows, nil
}

// MatchesKnownEvents scores detected windows against a ground-truth
// schedule: a window matches when it overlaps a real event; returns
// (matched, spurious, missed). A nil schedule uses the paper's Nov 2015
// events.
func MatchesKnownEvents(windows []EventWindow, sched *attack.Schedule) (matched, spurious, missed int) {
	if sched == nil {
		sched = attack.Nov2015Schedule()
	}
	events := sched.Events
	used := make([]bool, len(events))
	for _, w := range windows {
		hit := false
		for i, e := range events {
			if w.StartMinute < e.EndMinute+20 && w.EndMinute > e.StartMinute-20 {
				if !used[i] {
					matched++
					used[i] = true
				}
				hit = true
				break
			}
		}
		if !hit {
			spurious++
		}
	}
	for _, u := range used {
		if !u {
			missed++
		}
	}
	return matched, spurious, missed
}
