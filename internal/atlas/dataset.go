package atlas

import (
	"fmt"
	"math"
	"sync/atomic"

	"github.com/rootevent/anycastddos/internal/stats"
)

// Status classifies one probe (or one bin) outcome.
type Status uint8

// Outcome classes, in the paper's binning precedence order: a bin with any
// successful reply reports the site; else any error rcode; else timeout;
// bins without probes are NoData (§2.4.1).
const (
	NoData   Status = iota
	OK              // positive response (RCODE 0) identifying a site
	RCodeErr        // a response arrived but with a non-zero RCODE
	Timeout         // no reply within the Atlas timeout
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case NoData:
		return "nodata"
	case OK:
		return "ok"
	case RCodeErr:
		return "error"
	case Timeout:
		return "timeout"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// NoSite marks a bin or probe that did not identify a site.
const NoSite = -1

// RTTOverflowMs is the sentinel stored when a probe RTT meets or exceeds the
// uint16 millisecond ceiling. A stored value of RTTOverflowMs therefore means
// "at least 65.5 s", not an exact measurement; Dataset.RTTOverflowCount
// reports how many recorded probes hit the ceiling (one count per probe) so
// an implausible saturation no longer masquerades as a real RTT. In practice
// the probe layer converts any success slower than AtlasTimeoutMs into a
// Timeout first, so overflows only appear — in raw cells — when a World hands
// back pathological raw RTTs.
const RTTOverflowMs = 65535

// BinObs is the resolved observation of one VP for one letter in one
// ten-minute bin.
type BinObs struct {
	Site   int16 // index into the letter's site list, or NoSite
	Status Status
	RTTms  uint16 // mean RTT of successful probes in the bin; 0 if none
}

// RawObs is a single probe result, kept only for letters configured for
// raw retention (needed by the per-server and per-VP-raster analyses).
type RawObs struct {
	Site   int16
	Server int8 // 1-based server index, 0 unknown
	Status Status
	RTTms  uint16
}

// SiteServer is one interned (site, server) identity pair from the raw
// columns. Seal assigns dense IDs by ascending (Site, Server) order, so the
// table is a pure function of the recorded cells — independent of worker
// count or encounter order.
type SiteServer struct {
	Site   int16
	Server int8
}

// rawColumns holds the per-probe retention for one letter as parallel
// columns indexed vp*RawBins+rawBin. During a campaign the identity lives in
// the wide site/server columns; Seal interns them into ids (2 bytes/cell via
// the shared SiteServer table) and drops the wide columns.
type rawColumns struct {
	status []Status
	rtt    []uint16
	site   []int16 // until Seal
	server []int8  // until Seal
	ids    []uint16
}

// at returns the (site, server) identity of cell j, from either
// representation.
func (rc *rawColumns) at(table []SiteServer, j int) (int16, int8) {
	if rc.ids != nil {
		p := table[rc.ids[j]]
		return p.Site, p.Server
	}
	return rc.site[j], rc.server[j]
}

// Dataset is the cleaned, binned measurement corpus for one simulation run,
// stored struct-of-arrays: one dense column per field, indexed
// [letter][vp*Bins+bin]. The columnar shape keeps a 1M-VP campaign to five
// bytes per binned cell and lets every series/figure computation walk
// contiguous slices without materializing per-row structs.
type Dataset struct {
	StartMinute int
	BinMinutes  int
	Bins        int

	// RawBinMinutes is the probe cadence (raw bins are one probe wide).
	RawBinMinutes int
	RawBins       int

	Letters   []byte
	letterIdx map[byte]int

	NumVPs int
	// Excluded marks VPs dropped by cleaning (old firmware or detected
	// hijack); their observations are retained but ignored by accessors.
	Excluded []bool
	// ExcludedReason maps a VP to why it was dropped ("" if kept).
	ExcludedReason []string

	// Binned columns, one slice per letter, each indexed vp*Bins+bin.
	binStatus [][]Status
	binSite   [][]int16
	binRTT    [][]uint16

	// raw[letter] holds per-probe columns, only for raw-retained letters.
	raw map[byte]*rawColumns
	// ssTable maps interned raw IDs back to (site, server); built by Seal.
	ssTable []SiteServer
	sealed  bool

	// rttOverflow counts probes whose RTT saturated at RTTOverflowMs.
	// Updated atomically: VP shards record concurrently.
	rttOverflow atomic.Uint64
}

// NewDataset allocates a dataset for the given letters and shape.
func NewDataset(letters []byte, rawLetters []byte, numVPs, startMinute, binMinutes, bins, rawBinMinutes int) *Dataset {
	d := &Dataset{
		StartMinute:    startMinute,
		BinMinutes:     binMinutes,
		Bins:           bins,
		RawBinMinutes:  rawBinMinutes,
		RawBins:        bins * binMinutes / rawBinMinutes,
		Letters:        append([]byte(nil), letters...),
		letterIdx:      make(map[byte]int, len(letters)),
		NumVPs:         numVPs,
		Excluded:       make([]bool, numVPs),
		ExcludedReason: make([]string, numVPs),
		raw:            make(map[byte]*rawColumns),
	}
	d.binStatus = make([][]Status, len(letters))
	d.binSite = make([][]int16, len(letters))
	d.binRTT = make([][]uint16, len(letters))
	for i, l := range letters {
		d.letterIdx[l] = i
		d.binStatus[i] = make([]Status, numVPs*bins)
		d.binRTT[i] = make([]uint16, numVPs*bins)
		sites := make([]int16, numVPs*bins)
		for j := range sites {
			sites[j] = NoSite
		}
		d.binSite[i] = sites
	}
	for _, l := range rawLetters {
		if _, ok := d.letterIdx[l]; !ok {
			continue
		}
		n := numVPs * d.RawBins
		rc := &rawColumns{
			status: make([]Status, n),
			rtt:    make([]uint16, n),
			site:   make([]int16, n),
			server: make([]int8, n),
		}
		for j := range rc.site {
			rc.site[j] = NoSite
		}
		d.raw[l] = rc
	}
	return d
}

// HasLetter reports whether the dataset tracks a letter.
func (d *Dataset) HasLetter(letter byte) bool {
	_, ok := d.letterIdx[letter]
	return ok
}

// HasRaw reports whether raw probes were retained for a letter.
func (d *Dataset) HasRaw(letter byte) bool {
	_, ok := d.raw[letter]
	return ok
}

// rowWriter folds one VP's walk of one letter into the dataset, once.
// Building it resolves everything the walk's probes share — the letter's
// columns, the VP's row in each, and the bins of the first probe — so fold
// pays no map lookup and no division per probe: a walk's minutes are evenly
// spaced, and the cursors step from one probe's bins to the next by addition.
type rowWriter struct {
	d *Dataset
	// Binned row, length Bins.
	status []Status
	site   []int16
	rtt    []uint16
	// Raw row, length RawBins; nil slices unless the letter retains raw
	// probes.
	rawStatus []Status
	rawSite   []int16
	rawServer []int8
	rawRTT    []uint16
	// bin and raw locate the walk's first probe.
	bin, raw binCursor
}

// binCursor tracks which fixed-width bin an evenly stepped minute falls in:
// idx is the bin (negative before the dataset starts) and rem the minutes
// into it; each step adds stepIdx bins and stepRem minutes, carrying once.
type binCursor struct {
	idx, rem         int
	stepIdx, stepRem int
	width            int
}

// newBinCursor places a cursor at off minutes from the dataset start, to be
// advanced by interval minutes per step.
func newBinCursor(off, interval, width int) binCursor {
	c := binCursor{idx: off / width, rem: off % width, stepIdx: interval / width, stepRem: interval % width, width: width}
	if c.rem < 0 { // floor, not truncate: minutes before the start fall in bins < 0
		c.idx--
		c.rem += width
	}
	return c
}

func (c *binCursor) step() {
	c.idx += c.stepIdx
	if c.rem += c.stepRem; c.rem >= c.width {
		c.rem -= c.width
		c.idx++
	}
}

// rowWriter returns the writer for the walk of (vp, letter) that starts at
// minute first and probes every interval (> 0) minutes; ok is false when the
// dataset does not track the letter. Must not be called after Seal.
func (d *Dataset) rowWriter(vp VPID, letter byte, first, interval int) (w rowWriter, ok bool) {
	li, ok := d.letterIdx[letter]
	if !ok {
		return rowWriter{}, false
	}
	lo := int(vp) * d.Bins
	w = rowWriter{
		d:      d,
		status: d.binStatus[li][lo : lo+d.Bins],
		site:   d.binSite[li][lo : lo+d.Bins],
		rtt:    d.binRTT[li][lo : lo+d.Bins],
		bin:    newBinCursor(first-d.StartMinute, interval, d.BinMinutes),
	}
	if rc, ok := d.raw[letter]; ok {
		lo := int(vp) * d.RawBins
		w.rawStatus = rc.status[lo : lo+d.RawBins]
		w.rawSite = rc.site[lo : lo+d.RawBins]
		w.rawServer = rc.server[lo : lo+d.RawBins]
		w.rawRTT = rc.rtt[lo : lo+d.RawBins]
		w.raw = newBinCursor(first-d.StartMinute, interval, d.RawBinMinutes)
	}
	return w, true
}

// fold cleans and records the walk's probes, in probe order, and reports
// whether any of them is evidence of a hijacked vantage point (§2.4.1).
//
// Cleaning: a success slower than the Atlas timeout is a Timeout; a success
// whose identity string does not validate for the letter is kept without a
// site mapping, and at an implausibly short RTT is hijack evidence.
// Recording: the probe lands in the raw row (when retained; one probe per
// raw bin, last write wins) and in the binned row under the
// site>error>timeout precedence, successive successful RTTs in a bin
// averaged. Probes stream straight into the columns; no per-row struct is
// ever materialized, and probes at minutes outside the dataset are dropped
// after cleaning.
//
//repolint:hot
func (w *rowWriter) fold(walk *Walk, letter byte) (hijackEvidence bool) {
	walk.beginCleaning()
	bin, raw := w.bin, w.raw
	for i := range walk.Probes {
		p := &walk.Probes[i]
		status, site := p.Status, int16(p.Site)
		if status == OK {
			if p.RTTms >= AtlasTimeoutMs {
				status = Timeout
			} else if p.Identity != 0 && !walk.matches(letter, p.Identity) {
				if p.RTTms < HijackRTTThresholdMs {
					hijackEvidence = true
				}
				// A malformed identity that is not obviously a hijack is
				// kept but carries no site mapping.
				site = NoSite
			}
		}

		b := bin.idx
		bin.step()
		inBin := uint(b) < uint(len(w.status))
		rb, inRaw := 0, false
		if len(w.rawStatus) > 0 {
			rb = raw.idx
			raw.step()
			inRaw = uint(rb) < uint(len(w.rawStatus))
		}
		if !inBin && !inRaw {
			continue
		}
		// Clamped — and, if it saturates, counted — once per recorded probe,
		// however many cells the probe lands in and whatever its status.
		rtt := w.d.clampRTT(p.RTTms)
		if inRaw {
			w.rawStatus[rb] = status
			w.rawSite[rb] = site
			w.rawServer[rb] = int8(p.Server)
			w.rawRTT[rb] = rtt
		}
		if !inBin {
			continue
		}
		switch status {
		case OK:
			if w.status[b] == OK {
				w.rtt[b] = uint16((uint32(w.rtt[b]) + uint32(rtt)) / 2)
			} else {
				w.status[b] = OK
				w.rtt[b] = rtt
			}
			w.site[b] = site
		case RCodeErr:
			if w.status[b] != OK {
				w.status[b] = RCodeErr
				w.site[b] = NoSite
			}
		case Timeout:
			if w.status[b] == NoData {
				w.status[b] = Timeout
				w.site[b] = NoSite
			}
		}
	}
	return hijackEvidence
}

// clampRTT squeezes a millisecond RTT into the stored uint16 range. Values
// at or beyond the ceiling are recorded as the RTTOverflowMs sentinel and
// counted, so saturation is observable instead of silently producing a
// plausible-looking 65535.
func (d *Dataset) clampRTT(ms float64) uint16 {
	if ms < 0 {
		return 0
	}
	if ms >= RTTOverflowMs {
		d.rttOverflow.Add(1)
		return RTTOverflowMs
	}
	return uint16(ms)
}

// RTTOverflowCount reports how many recorded probes had an RTT at or past
// the uint16 ceiling. Each such probe counts once, whether its letter
// retains raw probes or not and whatever its status: the probe layer turns
// so slow a success into a Timeout, whose raw cell carries the RTTOverflowMs
// sentinel and whose binned cell carries no RTT at all.
func (d *Dataset) RTTOverflowCount() uint64 { return d.rttOverflow.Load() }

// Seal canonicalises the raw-letter (site, server) pairs into a dense
// interned ID table, halving the identity storage and making the raw columns
// self-describing via SiteServers. IDs are assigned in ascending
// (site, server) order over the distinct pairs actually recorded, so the
// table is byte-identical for every worker count. Seal is idempotent;
// RunContext and LoadDataset call it automatically. record must not be used
// after sealing.
func (d *Dataset) Seal() {
	if d.sealed {
		return
	}
	d.sealed = true
	var unsealed []*rawColumns
	minSite, maxSite := math.MaxInt16, math.MinInt16
	for _, l := range d.Letters {
		rc := d.raw[l]
		if rc == nil || rc.ids != nil {
			continue
		}
		unsealed = append(unsealed, rc)
		for _, site := range rc.site {
			minSite, maxSite = min(minSite, int(site)), max(maxSite, int(site))
		}
	}
	if maxSite < minSite {
		minSite, maxSite = 0, -1 // no raw cells: an empty table
	}
	// table is indexed by (site, server) in ascending order of both — one
	// row of 256 servers per site of [minSite, maxSite] — and first marks
	// the pairs that occur, then holds their IDs.
	key := func(site int16, server int8) int {
		return (int(site)-minSite)<<8 | (int(server) + 128)
	}
	table := make([]uint16, (maxSite-minSite+1)<<8)
	for _, rc := range unsealed {
		for j, site := range rc.site {
			table[key(site, rc.server[j])] = 1
		}
	}
	var pairs []SiteServer
	for k, present := range table {
		if present == 0 {
			continue
		}
		if len(pairs) == 1<<16 {
			// More distinct identities than uint16 IDs can address; keep the
			// wide columns. Never hit in practice (sites × servers is small).
			return
		}
		table[k] = uint16(len(pairs))
		pairs = append(pairs, SiteServer{Site: int16(k>>8 + minSite), Server: int8(k&0xff - 128)})
	}
	d.ssTable = pairs
	for _, rc := range unsealed {
		ids := make([]uint16, len(rc.site))
		for j, site := range rc.site {
			ids[j] = table[key(site, rc.server[j])]
		}
		rc.ids = ids
		rc.site, rc.server = nil, nil
	}
}

// SiteServers returns the interned (site, server) table built by Seal, in ID
// order. The result is a view; callers must not modify it.
func (d *Dataset) SiteServers() []SiteServer { return d.ssTable }

// Exclude drops a VP from analysis with a reason.
func (d *Dataset) Exclude(vp VPID, reason string) {
	if int(vp) < len(d.Excluded) {
		d.Excluded[vp] = true
		d.ExcludedReason[vp] = reason
	}
}

// NumExcluded returns how many VPs were dropped by cleaning.
func (d *Dataset) NumExcluded() int {
	n := 0
	for _, e := range d.Excluded {
		if e {
			n++
		}
	}
	return n
}

// At returns the binned observation for (letter, vp, bin). The second
// return is false for excluded VPs or unknown letters.
//
// Deprecated: At assembles a BinObs struct per call; scanning code should
// use the allocation-free Rows cursor instead. Kept one release for
// migration; repolint's deprecatedatlas rule flags new non-test uses
// outside internal/atlas.
func (d *Dataset) At(letter byte, vp VPID, bin int) (BinObs, bool) {
	li, ok := d.letterIdx[letter]
	if !ok || d.Excluded[vp] || bin < 0 || bin >= d.Bins {
		return BinObs{Site: NoSite}, false
	}
	i := int(vp)*d.Bins + bin
	return BinObs{Site: d.binSite[li][i], Status: d.binStatus[li][i], RTTms: d.binRTT[li][i]}, true
}

// RawAt returns the raw observation for (letter, vp, rawBin).
//
// Deprecated: RawAt assembles a RawObs struct per call; scanning code
// should use the allocation-free RawRows cursor instead. Kept one release
// for migration; repolint's deprecatedatlas rule flags new non-test uses
// outside internal/atlas.
func (d *Dataset) RawAt(letter byte, vp VPID, rawBin int) (RawObs, bool) {
	rc, ok := d.raw[letter]
	if !ok || d.Excluded[vp] || rawBin < 0 || rawBin >= d.RawBins {
		return RawObs{Site: NoSite}, false
	}
	i := int(vp)*d.RawBins + rawBin
	site, server := rc.at(d.ssTable, i)
	return RawObs{Site: site, Server: server, Status: rc.status[i], RTTms: rc.rtt[i]}, true
}

// EachVP calls fn for every non-excluded VP ID.
//
// Deprecated: use the Rows/RawRows cursors, which pair the VP walk with
// direct column views. Kept one release for migration; repolint's
// deprecatedatlas rule flags new non-test uses outside internal/atlas.
func (d *Dataset) EachVP(fn func(vp VPID)) {
	for i := 0; i < d.NumVPs; i++ {
		if !d.Excluded[i] {
			fn(VPID(i))
		}
	}
}

// SuccessSeries returns, for one letter, the number of VPs with a
// successful query per bin — the quantity plotted in Figure 3.
func (d *Dataset) SuccessSeries(letter byte) (*stats.Series, error) {
	li, ok := d.letterIdx[letter]
	if !ok {
		return nil, fmt.Errorf("atlas: letter %c not in dataset", letter)
	}
	s := stats.NewSeries(fmt.Sprintf("vps-ok-%c", letter), d.StartMinute, d.BinMinutes, d.Bins)
	st := d.binStatus[li]
	for vp := 0; vp < d.NumVPs; vp++ {
		if d.Excluded[vp] {
			continue
		}
		row := st[vp*d.Bins : (vp+1)*d.Bins]
		for b, c := range row {
			if c == OK {
				s.Values[b]++
			}
		}
	}
	return s, nil
}

// MedianRTTSeries returns the per-bin median RTT of successful queries for
// one letter (Figure 4). It runs in two passes over the status column —
// count per bin, then scatter RTTs into one flat buffer grouped by bin — so
// the only allocations are the buffer and the series, regardless of VP
// count.
func (d *Dataset) MedianRTTSeries(letter byte) (*stats.Series, error) {
	li, ok := d.letterIdx[letter]
	if !ok {
		return nil, fmt.Errorf("atlas: letter %c not in dataset", letter)
	}
	s := stats.NewSeries(fmt.Sprintf("rtt-median-%c", letter), d.StartMinute, d.BinMinutes, d.Bins)
	d.medianSeries(s, d.binStatus[li], d.binRTT[li], d.binSite[li], false, 0)
	return s, nil
}

// SiteSeries returns the number of VPs resolved to the given site of a
// letter per bin. It costs a pass over the whole letter; code that wants
// more than one site's catchment takes them all from one SiteSeriesAll.
func (d *Dataset) SiteSeries(letter byte, site int) (*stats.Series, error) {
	if site < 0 {
		return nil, fmt.Errorf("atlas: site index %d out of range", site)
	}
	all, err := d.SiteSeriesAll(letter, site+1)
	if err != nil {
		return nil, err
	}
	return all[site], nil
}

// SiteSeriesAll returns every site's catchment series for one letter — the
// number of VPs resolved to the site per bin (Figures 5, 6, 14) — from a
// single pass over the letter's columns. Element i is site i's series; the
// result covers site indexes 0..n-1 where n is the larger of nSites and
// one past the largest site index observed, so callers that know the
// deployment get a series for never-seen sites and callers that do not
// (an archived dataset) pass 0.
func (d *Dataset) SiteSeriesAll(letter byte, nSites int) ([]*stats.Series, error) {
	li, ok := d.letterIdx[letter]
	if !ok {
		return nil, fmt.Errorf("atlas: letter %c not in dataset", letter)
	}
	var out []*stats.Series
	grow := func(n int) {
		for i := len(out); i < n; i++ {
			out = append(out, stats.NewSeries(fmt.Sprintf("vps-%c-site%d", letter, i), d.StartMinute, d.BinMinutes, d.Bins))
		}
	}
	grow(nSites)
	st, si := d.binStatus[li], d.binSite[li]
	for vp := 0; vp < d.NumVPs; vp++ {
		if d.Excluded[vp] {
			continue
		}
		lo := vp * d.Bins
		row := st[lo : lo+d.Bins]
		for b, c := range row {
			if c != OK {
				continue
			}
			site := int(si[lo+b])
			if site < 0 {
				continue
			}
			if site >= len(out) {
				grow(site + 1)
			}
			out[site].Values[b]++
		}
	}
	return out, nil
}

// SiteRTTSeries returns the per-bin median RTT of successful queries that
// landed on one site (Figure 7).
func (d *Dataset) SiteRTTSeries(letter byte, site int) (*stats.Series, error) {
	li, ok := d.letterIdx[letter]
	if !ok {
		return nil, fmt.Errorf("atlas: letter %c not in dataset", letter)
	}
	s := stats.NewSeries(fmt.Sprintf("rtt-%c-site%d", letter, site), d.StartMinute, d.BinMinutes, d.Bins)
	d.medianSeries(s, d.binStatus[li], d.binRTT[li], d.binSite[li], true, site)
	return s, nil
}

// medianSeries fills s with the per-bin median RTT over successful cells
// (optionally restricted to one site) using counting passes and a single
// flat scatter buffer.
func (d *Dataset) medianSeries(s *stats.Series, st []Status, rtt []uint16, si []int16, bySite bool, site int) {
	// Pass 1: successful samples per bin -> prefix-summed segment offsets.
	offs := make([]int, d.Bins+1)
	for vp := 0; vp < d.NumVPs; vp++ {
		if d.Excluded[vp] {
			continue
		}
		lo := vp * d.Bins
		row := st[lo : lo+d.Bins]
		for b, c := range row {
			if c == OK && (!bySite || int(si[lo+b]) == site) {
				offs[b+1]++
			}
		}
	}
	for b := 0; b < d.Bins; b++ {
		offs[b+1] += offs[b]
	}
	// Pass 2: scatter RTTs into per-bin segments, preserving VP order
	// within each bin (the same multiset the row store accumulated).
	flat := make([]uint16, offs[d.Bins])
	next := make([]int, d.Bins)
	copy(next, offs[:d.Bins])
	for vp := 0; vp < d.NumVPs; vp++ {
		if d.Excluded[vp] {
			continue
		}
		lo := vp * d.Bins
		row := st[lo : lo+d.Bins]
		for b, c := range row {
			if c == OK && (!bySite || int(si[lo+b]) == site) {
				flat[next[b]] = rtt[lo+b]
				next[b]++
			}
		}
	}
	for b := 0; b < d.Bins; b++ {
		s.Values[b] = medianU16(flat[offs[b]:offs[b+1]])
	}
}

// medianU16 is the median of seg: the middle value, or the mean of the two
// middle values. It selects them by counting instead of sorting, and is
// bit-identical to stats.Median over the same values widened to float64:
// every uint16 converts exactly and the two middle integers halve exactly
// (for odd n both are the same value, whose halves sum back to it).
func medianU16(seg []uint16) float64 {
	n := len(seg)
	if n == 0 {
		return 0
	}
	hi := selectU16(seg, n/2)
	lo := hi
	if n%2 == 0 {
		lo = selectU16(seg, n/2-1)
	}
	return float64(lo)*0.5 + float64(hi)*0.5
}

// selectU16 returns the k-th smallest (0-based) value of seg without
// reordering it: a histogram of the high bytes finds the 256-value bucket
// holding rank k, a histogram of the low bytes inside that bucket finds the
// value. Two linear passes, whatever the spread of the values.
func selectU16(seg []uint16, k int) uint16 {
	var hist [256]int
	for _, v := range seg {
		hist[v>>8]++
	}
	high := 0
	for k >= hist[high] {
		k -= hist[high]
		high++
	}
	hist = [256]int{}
	for _, v := range seg {
		if int(v>>8) == high {
			hist[v&0xff]++
		}
	}
	low := 0
	for k >= hist[low] {
		k -= hist[low]
		low++
	}
	return uint16(high<<8 | low)
}
