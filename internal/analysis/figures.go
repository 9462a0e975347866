package analysis

import (
	"fmt"

	"github.com/rootevent/anycastddos/internal/atlas"
	"github.com/rootevent/anycastddos/internal/attack"
	"github.com/rootevent/anycastddos/internal/stats"
)

// Figure3 returns per-letter series of VPs with successful queries in
// 10-minute bins. A-Root, probed every 30 minutes, is rescaled by the
// cadence ratio so its curve is comparable, as the paper does.
func (a *Analyzer) Figure3() (map[byte]*stats.Series, error) {
	out := make(map[byte]*stats.Series)
	for _, lb := range a.ev.Deployment.SortedLetters() {
		s, err := a.d.SuccessSeries(lb)
		if err != nil {
			return nil, err
		}
		if lb == 'A' {
			// Only ~BinMinutes/30 of VPs probe A inside any bin.
			scale := 30.0 / float64(a.d.BinMinutes)
			s, err = s.Normalize(1 / scale)
			if err != nil {
				return nil, err
			}
		}
		out[lb] = s
	}
	return out, nil
}

// Figure4 returns per-letter median RTT series for successful queries.
func (a *Analyzer) Figure4() (map[byte]*stats.Series, error) {
	out := make(map[byte]*stats.Series)
	for _, lb := range a.ev.Deployment.SortedLetters() {
		if lb == 'A' {
			continue // probed too rarely for RTT dynamics
		}
		s, err := a.medianRTTSeries(lb)
		if err != nil {
			return nil, err
		}
		out[lb] = s.Clone()
	}
	return out, nil
}

// Figure5Row summarizes one site's catchment swing over the two days.
type Figure5Row struct {
	Site           string
	SiteIndex      int
	MedianVPs      float64
	MinNorm        float64 // min VPs / median
	MaxNorm        float64 // max VPs / median
	BelowThreshold bool    // median < 20 VPs (unstable, shaded in the paper)
}

// StableVPThreshold is the paper's minimum median catchment for a site to
// be considered reliably observable (§2.4.1).
const StableVPThreshold = 20

// Figure5 computes min/max catchment sizes normalized to the median for
// every site of a letter, ordered by median (Figure 5 shows E and K).
func (a *Analyzer) Figure5(letter byte) ([]Figure5Row, error) {
	sites := a.ev.LetterSites(letter)
	if sites == nil {
		return nil, fmt.Errorf("analysis: unknown letter %c", letter)
	}
	series, err := a.siteSeries(letter, len(sites))
	if err != nil {
		return nil, err
	}
	order, medians := sortedSiteIndexesByMedian(series[:len(sites)])
	var rows []Figure5Row
	for _, si := range order {
		s := series[si]
		row := Figure5Row{
			Site: sites[si].Name(), SiteIndex: si,
			MedianVPs:      medians[si],
			BelowThreshold: medians[si] < StableVPThreshold,
		}
		min, _, _ := s.Min()
		max, _, _ := s.Max()
		if medians[si] > 0 {
			row.MinNorm = min / medians[si]
			row.MaxNorm = max / medians[si]
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Figure6Site is one mini-plot of Figure 6: a site's full catchment time
// series normalized to its median.
type Figure6Site struct {
	Site      string
	SiteIndex int
	MedianVPs float64
	Norm      *stats.Series // VP count / median per bin
	// CriticalBins marks bins where reachability fell below half the
	// median (the paper's red "critical moments").
	CriticalBins []int
}

// Figure6 returns the per-site catchment dynamics for one letter, ordered
// by median.
func (a *Analyzer) Figure6(letter byte) ([]Figure6Site, error) {
	sites := a.ev.LetterSites(letter)
	if sites == nil {
		return nil, fmt.Errorf("analysis: unknown letter %c", letter)
	}
	series, err := a.siteSeries(letter, len(sites))
	if err != nil {
		return nil, err
	}
	order, medians := sortedSiteIndexesByMedian(series[:len(sites)])
	var out []Figure6Site
	for _, si := range order {
		s := series[si]
		entry := Figure6Site{Site: sites[si].Name(), SiteIndex: si, MedianVPs: medians[si]}
		if medians[si] > 0 {
			norm, err := s.Normalize(medians[si])
			if err != nil {
				return nil, err
			}
			entry.Norm = norm
			for b, v := range norm.Values {
				if v < 0.5 {
					entry.CriticalBins = append(entry.CriticalBins, b)
				}
			}
		} else {
			entry.Norm = s.Clone()
		}
		out = append(out, entry)
	}
	return out, nil
}

// Figure7 returns median-RTT series for the selected K-Root sites the
// paper highlights (AMS, NRT, LHR, FRA), keyed by site name.
func (a *Analyzer) Figure7(letter byte, codes []string) (map[string]*stats.Series, error) {
	l, ok := a.ev.Deployment.Letter(letter)
	if !ok {
		return nil, fmt.Errorf("analysis: unknown letter %c", letter)
	}
	out := make(map[string]*stats.Series)
	for _, code := range codes {
		site, ok := l.SiteByCode(code)
		if !ok {
			return nil, fmt.Errorf("analysis: no site %c-%s", letter, code)
		}
		for si, s := range l.Sites {
			if s == site {
				series, err := a.d.SiteRTTSeries(letter, si)
				if err != nil {
					return nil, err
				}
				out[site.Name()] = series
			}
		}
	}
	return out, nil
}

// Figure8 counts site flips per letter per bin: a VP flips when its
// resolved site differs from the previous bin (both successful).
func (a *Analyzer) Figure8() (map[byte]*stats.Series, error) {
	d := a.d
	out := make(map[byte]*stats.Series)
	for _, lb := range a.ev.Deployment.SortedLetters() {
		if lb == 'A' {
			continue
		}
		if !d.HasLetter(lb) {
			continue
		}
		s := stats.NewSeries(fmt.Sprintf("flips-%c", lb), d.StartMinute, d.BinMinutes, d.Bins)
		rows, err := d.Rows(lb)
		if err != nil {
			return nil, err
		}
		for rows.Next() {
			status, site := rows.Status(), rows.Site()
			prev := int16(atlas.NoSite)
			havePrev := false
			for b, st := range status {
				if st != atlas.OK {
					continue
				}
				if havePrev && site[b] != prev {
					s.Values[b]++
				}
				prev = site[b]
				havePrev = true
			}
		}
		out[lb] = s
	}
	return out, nil
}

// Figure9 returns BGP route-change series per letter from the collector
// mesh.
func (a *Analyzer) Figure9() map[byte]*stats.Series {
	out := make(map[byte]*stats.Series)
	for _, lb := range a.ev.Deployment.SortedLetters() {
		out[lb] = a.ev.Collector.UpdateSeries(lb, 0, 10, a.ev.Cfg.Minutes/10)
	}
	return out
}

// FlipFlow summarizes where one site's VPs went during an event window
// (Figure 10): destination site name -> fraction of movers.
type FlipFlow struct {
	FromSite string
	Movers   int
	Dest     map[string]float64
	// Returned is the fraction of movers back at their original site
	// after the event.
	Returned float64
}

// Figure10 computes flip flows out of the given sites during an event.
func (a *Analyzer) Figure10(letter byte, codes []string, eventIdx int) ([]FlipFlow, error) {
	d := a.d
	l, ok := a.ev.Deployment.Letter(letter)
	if !ok {
		return nil, fmt.Errorf("analysis: unknown letter %c", letter)
	}
	events := a.ev.Schedule().Events
	if eventIdx < 0 || eventIdx >= len(events) {
		return nil, fmt.Errorf("analysis: bad event %d", eventIdx)
	}
	event := events[eventIdx]
	geom := stats.NewSeries("", d.StartMinute, d.BinMinutes, d.Bins)
	preBin, okb := geom.BinFor(event.StartMinute - 30)
	if !okb {
		return nil, fmt.Errorf("analysis: event outside dataset")
	}
	startBin, _ := geom.BinFor(event.StartMinute)
	endBin, okE := geom.BinFor(event.EndMinute - 1)
	if !okE {
		endBin = d.Bins - 1
	}
	postBin, okc := geom.BinFor(event.EndMinute + 120)
	if !okc {
		postBin = d.Bins - 1
	}

	siteIdx := func(code string) int {
		for si, s := range l.Sites {
			if s.Code == code {
				return si
			}
		}
		return -1
	}
	var flows []FlipFlow
	for _, code := range codes {
		home := siteIdx(code)
		if home < 0 {
			return nil, fmt.Errorf("analysis: no site %c-%s", letter, code)
		}
		flow := FlipFlow{FromSite: fmt.Sprintf("%c-%s", letter, code), Dest: map[string]float64{}}
		returned := 0
		rows, err := d.Rows(letter)
		if err != nil {
			return nil, err
		}
		for rows.Next() {
			status, site := rows.Status(), rows.Site()
			if status[preBin] != atlas.OK || int(site[preBin]) != home {
				continue
			}
			// A mover spent at least one in-event bin at another site;
			// its destination is where it spent the most bins (flaps
			// can bounce VPs between sites within one event).
			away := map[int16]int{}
			for b := startBin; b <= endBin; b++ {
				if status[b] == atlas.OK && int(site[b]) != home {
					away[site[b]]++
				}
			}
			if len(away) == 0 {
				continue
			}
			best, bestN := int16(-1), 0
			for site, n := range away {
				if n > bestN || (n == bestN && site < best) {
					best, bestN = site, n
				}
			}
			flow.Movers++
			flow.Dest[l.Sites[best].Name()]++
			if status[postBin] == atlas.OK && int(site[postBin]) == home {
				returned++
			}
		}
		for k := range flow.Dest {
			flow.Dest[k] /= float64(flow.Movers)
		}
		if flow.Movers > 0 {
			flow.Returned = float64(returned) / float64(flow.Movers)
		}
		flows = append(flows, flow)
	}
	return flows, nil
}

// RasterRow is one VP's site choices over raw (probe-cadence) bins,
// rendered as bytes: 'L' home site 1, 'F' home site 2, 'A' the main
// overflow site, 'o' other site, '.' no response.
type RasterRow struct {
	VP    atlas.VPID
	Cells []byte
}

// Figure11 samples VPs whose pre-event home is one of the two focus sites
// and renders their per-probe site raster, as in the 300-VP panel of
// Figure 11 (home1='L'/K-LHR, home2='F'/K-FRA, overflow='A'/K-AMS).
func (a *Analyzer) Figure11(letter byte, home1, home2, overflow string, maxVPs int) ([]RasterRow, error) {
	d := a.d
	if !d.HasRaw(letter) {
		return nil, fmt.Errorf("analysis: no raw data for %c", letter)
	}
	l, _ := a.ev.Deployment.Letter(letter)
	idx := func(code string) int16 {
		for si, s := range l.Sites {
			if s.Code == code {
				return int16(si)
			}
		}
		return -1
	}
	h1, h2, ov := idx(home1), idx(home2), idx(overflow)
	if h1 < 0 || h2 < 0 || ov < 0 {
		return nil, fmt.Errorf("analysis: unknown focus sites")
	}
	// Home = raw site shortly before the first event.
	firstStart := attack.Event1Start
	if evs := a.ev.Schedule().Events; len(evs) > 0 {
		firstStart = evs[0].StartMinute
	}
	preRaw := (firstStart - 30) / d.RawBinMinutes
	var rows []RasterRow
	if preRaw < 0 || preRaw >= d.RawBins {
		return rows, nil
	}
	raw, err := d.RawRows(letter)
	if err != nil {
		return nil, err
	}
	for raw.Next() {
		if len(rows) >= maxVPs {
			break
		}
		status := raw.Status()
		if status[preRaw] != atlas.OK {
			continue
		}
		if pre := raw.Site(preRaw); pre != h1 && pre != h2 {
			continue
		}
		row := RasterRow{VP: raw.VP(), Cells: make([]byte, d.RawBins)}
		for rb := range status {
			switch {
			case status[rb] != atlas.OK:
				row.Cells[rb] = '.'
			case raw.Site(rb) == h1:
				row.Cells[rb] = 'L'
			case raw.Site(rb) == h2:
				row.Cells[rb] = 'F'
			case raw.Site(rb) == ov:
				row.Cells[rb] = 'A'
			default:
				row.Cells[rb] = 'o'
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RasterGroup classifies one VP's behaviour through an event, following
// the four groups the paper reads off Figure 11b (§3.4.2).
type RasterGroup uint8

// The §3.4.2 behaviour groups.
const (
	// GroupStuck VPs stay at their home site and mostly fail — the
	// degraded-absorbing peering relationship ("stuck" clients).
	GroupStuck RasterGroup = iota
	// GroupFlipReturn VPs shift away during the event and return after.
	GroupFlipReturn
	// GroupFlipStay VPs shift away and remain at the new site.
	GroupFlipStay
	// GroupUnaffected VPs keep their home site with mostly successful
	// queries throughout.
	GroupUnaffected
)

// String names the group.
func (g RasterGroup) String() string {
	switch g {
	case GroupStuck:
		return "stuck-failing"
	case GroupFlipReturn:
		return "flip-and-return"
	case GroupFlipStay:
		return "flip-and-stay"
	case GroupUnaffected:
		return "unaffected"
	default:
		return fmt.Sprintf("RasterGroup(%d)", uint8(g))
	}
}

// ClassifyRaster buckets raster rows into the §3.4.2 groups for the given
// event of the analyzer's simulated schedule.
func (a *Analyzer) ClassifyRaster(rows []RasterRow, eventIdx int) (map[RasterGroup]int, error) {
	return ClassifyRaster(rows, a.d, a.ev.Schedule(), eventIdx)
}

// ClassifyRaster buckets raster rows into the §3.4.2 groups for one event
// window. Cells: home sites are 'L'/'F', others 'A'/'o', failures '.'.
// A nil schedule uses the paper's Nov 2015 events.
func ClassifyRaster(rows []RasterRow, d *atlas.Dataset, sched *attack.Schedule, eventIdx int) (map[RasterGroup]int, error) {
	if sched == nil {
		sched = attack.Nov2015Schedule()
	}
	events := sched.Events
	if eventIdx < 0 || eventIdx >= len(events) {
		return nil, fmt.Errorf("analysis: bad event %d", eventIdx)
	}
	event := events[eventIdx]
	startRB := (event.StartMinute - d.StartMinute) / d.RawBinMinutes
	endRB := (event.EndMinute - d.StartMinute) / d.RawBinMinutes
	postRB := endRB + 120/d.RawBinMinutes

	out := map[RasterGroup]int{}
	isHome := func(c byte) bool { return c == 'L' || c == 'F' }
	for _, r := range rows {
		if startRB < 0 || endRB > len(r.Cells) {
			return nil, fmt.Errorf("analysis: event outside raster")
		}
		home := byte('L')
		for _, c := range r.Cells[:startRB] {
			if isHome(c) {
				home = c
				break
			}
		}
		var away, fail, homeOK int
		for _, c := range r.Cells[startRB:endRB] {
			switch {
			case c == '.':
				fail++
			case c == home:
				homeOK++
			case c != home && c != '.':
				away++
			}
		}
		n := endRB - startRB
		post := home
		if postRB < len(r.Cells) {
			// First successful post-event cell decides where it settled.
			for _, c := range r.Cells[postRB:] {
				if c != '.' {
					post = c
					break
				}
			}
		}
		switch {
		case away >= n/4 && post == home:
			out[GroupFlipReturn]++
		case away >= n/4:
			out[GroupFlipStay]++
		case fail >= n/2:
			out[GroupStuck]++
		default:
			out[GroupUnaffected]++
		}
	}
	return out, nil
}

// ServerSeries is one server's reachability and RTT over time (Figures 12
// and 13).
type ServerSeries struct {
	Site    string
	Server  int
	Success *stats.Series // successful probes per bin
	RTT     *stats.Series // median RTT per bin
}

// FigureServers derives per-server reachability/RTT for a site from raw
// probes.
func (a *Analyzer) FigureServers(letter byte, code string) ([]ServerSeries, error) {
	d := a.d
	if !d.HasRaw(letter) {
		return nil, fmt.Errorf("analysis: no raw data for %c", letter)
	}
	l, ok := a.ev.Deployment.Letter(letter)
	if !ok {
		return nil, fmt.Errorf("analysis: unknown letter %c", letter)
	}
	site, ok := l.SiteByCode(code)
	if !ok {
		return nil, fmt.Errorf("analysis: no site %c-%s", letter, code)
	}
	var siteIdx int16 = -1
	for si, s := range l.Sites {
		if s == site {
			siteIdx = int16(si)
		}
	}
	bins := d.Bins
	perServerCounts := make([][]float64, site.NumServers)
	perServerRTTs := make([][][]float64, site.NumServers)
	for i := range perServerCounts {
		perServerCounts[i] = make([]float64, bins)
		perServerRTTs[i] = make([][]float64, bins)
	}
	rawPerBin := d.BinMinutes / d.RawBinMinutes
	if rawPerBin < 1 {
		rawPerBin = 1
	}
	raw, err := d.RawRows(letter)
	if err != nil {
		return nil, err
	}
	for raw.Next() {
		status, rtt := raw.Status(), raw.RTT()
		for rb, st := range status {
			if st != atlas.OK || raw.Site(rb) != siteIdx {
				continue
			}
			srv := int(raw.Server(rb))
			if srv < 1 || srv > site.NumServers {
				continue
			}
			b := rb / rawPerBin
			if b >= bins {
				continue
			}
			perServerCounts[srv-1][b]++
			perServerRTTs[srv-1][b] = append(perServerRTTs[srv-1][b], float64(rtt[rb]))
		}
	}
	var out []ServerSeries
	for srv := 1; srv <= site.NumServers; srv++ {
		ss := ServerSeries{
			Site: site.Name(), Server: srv,
			Success: stats.NewSeries(fmt.Sprintf("%s-S%d-ok", site.Name(), srv), d.StartMinute, d.BinMinutes, bins),
			RTT:     stats.NewSeries(fmt.Sprintf("%s-S%d-rtt", site.Name(), srv), d.StartMinute, d.BinMinutes, bins),
		}
		for b := 0; b < bins; b++ {
			ss.Success.Values[b] = perServerCounts[srv-1][b]
			ss.RTT.Values[b] = stats.Median(perServerRTTs[srv-1][b])
		}
		out = append(out, ss)
	}
	return out, nil
}

// Figure14Site is one collateral-damage candidate at an unattacked letter.
type Figure14Site struct {
	Site      string
	SiteIndex int
	MedianVPs float64
	DipFrac   float64 // worst in-event drop relative to median
	Series    *stats.Series
}

// Figure14 finds sites of an unattacked letter with >= 20 VPs whose
// reachability dipped at least minDip during event windows (the paper uses
// 10%), i.e. collateral damage.
func (a *Analyzer) Figure14(letter byte, minDip float64) ([]Figure14Site, error) {
	sites := a.ev.LetterSites(letter)
	if sites == nil {
		return nil, fmt.Errorf("analysis: unknown letter %c", letter)
	}
	series, err := a.siteSeries(letter, len(sites))
	if err != nil {
		return nil, err
	}
	var out []Figure14Site
	for si := range sites {
		s := series[si]
		med := s.Median()
		if med < StableVPThreshold {
			continue
		}
		worst := 0.0
		for b, v := range s.Values {
			minute := s.MinuteFor(b)
			if a.ev.Schedule().Active(minute) < 0 {
				continue
			}
			dip := (med - v) / med
			if dip > worst {
				worst = dip
			}
		}
		if worst >= minDip {
			out = append(out, Figure14Site{
				Site: sites[si].Name(), SiteIndex: si,
				MedianVPs: med, DipFrac: worst, Series: s.Clone(),
			})
		}
	}
	return out, nil
}

// Figure15 returns the .nl collateral series (already normalized).
func (a *Analyzer) Figure15() []*stats.Series {
	return a.ev.NLSeries
}
