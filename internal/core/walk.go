package core

import (
	"math"
	"sync"

	"github.com/rootevent/anycastddos/internal/anycast"
	"github.com/rootevent/anycastddos/internal/atlas"
	"github.com/rootevent/anycastddos/internal/faults"
	"github.com/rootevent/anycastddos/internal/netsim"
)

// hijackIdentity is what the third-party resolver in front of a hijacked
// vantage point answers CHAOS queries with.
var hijackIdentity = []string{"dnsmasq-2.76"}

// walkPool lends ProbeOutcome the one-probe walk buffer it hands the kernel.
var walkPool = sync.Pool{New: func() any { return new(atlas.Walk) }}

// ProbeOutcome implements atlas.World against the simulated event: the
// one-probe walk starting at minute. It allocates nothing.
//
//repolint:hot
func (ev *Evaluator) ProbeOutcome(vp *atlas.VP, letter byte, minute int) atlas.Outcome {
	w := walkPool.Get().(*atlas.Walk)
	w.Reset(1)
	ev.ProbeWalk(vp, letter, minute, 1, w)
	out := w.Outcome(0)
	walkPool.Put(w)
	return out
}

// siteRow is what a walk's probes share while routing keeps the vantage
// point at one site: the site's service series and everything about the
// (vantage point, site) pair that does not depend on the minute.
type siteRow struct {
	site  int
	s     *anycast.Site
	steps *steps[siteState]
	// excess is the city's excess-load series when the letter is not itself
	// targeted and so suffers only collateral loss there; nil otherwise.
	excess *steps[uint64]
	// baseRTT is the geographic RTT between the vantage point and the site.
	baseRTT  float64
	nServers uint64
	// identity is the walk-table Identity of the site's server 0; server n's
	// is identity+n.
	identity uint32
}

// spanKind is what every probe of a walk span answers.
type spanKind uint8

const (
	spanTimeout  spanKind = iota
	spanNoData            // the vantage point is churned off the platform
	spanBogus             // a hijacked vantage point's resolver answers
	spanLossless          // the hashed server answers with the site's delay
	spanLossy             // netsim.ProbeServer and the loss coin decide
)

// walkSpan is where a walk stands: the site row of the routing epoch in
// force until epochEnd, and the span of minutes, up to end, over which every
// input of a probe but its minute's coins holds still.
type walkSpan struct {
	kind spanKind
	end  int
	// loss is the span's loss with collateral damage composed in, and delay
	// the site's extra delay; both are read only by route-holding spans.
	loss, delay float64
	epochEnd    int
	row         siteRow
}

// ProbeWalk implements atlas.WalkWorld: it answers the probes of one vantage
// point toward one letter at minutes first, first+interval, ... (interval >=
// 0). This is the measurement hot path — VPs × letters walks of hundreds of
// probes each — and the only model of a probe (ProbeOutcome is its one-probe
// case). The walk steps from change point to change point: nextSpan resolves
// what the probes of a span share — churn, routing epoch, the site's
// service state and its city's collateral load — once, so a probe of a
// lossless span is its balancer hash and its RTT coin. The walk allocates
// nothing.
//
//repolint:hot
func (ev *Evaluator) ProbeWalk(vp *atlas.VP, letter byte, first, interval int, w *atlas.Walk) {
	probes := w.Probes
	lastMinute := ev.Cfg.Minutes - 1

	// A churned vantage point is disconnected from the measurement platform
	// for the churn event's window: no probe is recorded for any letter,
	// leaving a NoData gap in the dataset.
	var downBuf [4]faults.Window
	var down []faults.Window
	if ev.flt != nil {
		down = ev.flt.AppendVPDownWindows(downBuf[:0], int32(vp.ID))
	}
	// coinKey is a probe's coin key (see coin) without its minute and salt;
	// serverKey likewise for the balancer hash.
	coinKey := uint64(ev.Cfg.Seed)*0x9E3779B97F4A7C15 ^ uint64(vp.ID)<<40 ^ uint64(letter)<<32
	serverKey := uint64(vp.ID)<<20 ^ uint64(letter)
	var bogus uint32
	if vp.Hijacked {
		bogus = w.AddIdentities(hijackIdentity)
	}
	ls := ev.letterTab[letter]
	if ls != nil && len(ls.epochs) == 0 {
		// Run has not produced an epoch for this letter: as unanswerable as
		// an unknown letter.
		ls = nil
	}

	i, minute := 0, first
	for ; i < len(probes) && minute < 0; i++ {
		// A negative minute is misuse, not a moment of the simulation.
		probes[i].Set(atlas.Timeout, 0, 0, 0, 0)
		minute += interval
	}
	sp := walkSpan{epochEnd: math.MinInt}
	sp.row.site = -1
	for i < len(probes) {
		// Probes past the horizon read its last minute.
		ev.nextSpan(&sp, ls, vp, down, min(minute, lastMinute), w)
		n := len(probes)
		if sp.end <= lastMinute && interval > 0 {
			n = min(n, i+(sp.end-minute+interval-1)/interval)
		}
		span := probes[i:n]
		i = n
		row := &sp.row
		switch sp.kind {
		case spanLossless:
			// RTT: geography plus queueing, with mild multiplicative jitter.
			base, site, identity := row.baseRTT+sp.delay, row.site, row.identity
			for k := range span {
				m := min(minute, lastMinute)
				server := row.server(serverKey, m)
				span[k].Set(atlas.OK, site, server, base*(0.92+0.16*coin(coinKey, m, 3)), identity+uint32(server))
				minute += interval
			}
		case spanLossy:
			// A stressed site needs the per-server view and the loss coin.
			st := netsim.State{LossFrac: sp.loss, ExtraDelayMs: sp.delay}
			for k := range span {
				m := min(minute, lastMinute)
				minute += interval
				server, responds, srvLoss, delay := netsim.ProbeServer(row.s, st, ev.Cfg.Netsim, int(ev.evActive[m])+1, row.server(serverKey, m))
				if !responds || coin(coinKey, m, 2) < srvLoss {
					span[k].Set(atlas.Timeout, 0, 0, 0, 0)
					continue
				}
				span[k].Set(atlas.OK, row.site, server, (row.baseRTT+delay)*(0.92+0.16*coin(coinKey, m, 3)), row.identity+uint32(server))
			}
		case spanBogus:
			// A third-party resolver intercepts the query: instant bogus
			// identity at an implausibly short RTT (§2.4.1).
			for k := range span {
				span[k].Set(atlas.OK, 0, 0, 2+3*coin(coinKey, min(minute, lastMinute), 1), bogus)
				minute += interval
			}
		default:
			status := atlas.Timeout
			if sp.kind == spanNoData {
				status = atlas.NoData
			}
			for k := range span {
				span[k].Set(status, 0, 0, 0, 0)
			}
			minute += len(span) * interval
		}
	}
}

// nextSpan moves sp to the span that starts at minute m (at most the last
// minute of the run, and no earlier than the span before). The span ends at
// the earliest of the next churn-window edge, the next routing epoch, the
// site's next service step and, for a row with collateral loss, its city's
// next excess step.
//
//repolint:hot
func (ev *Evaluator) nextSpan(sp *walkSpan, ls *letterState, vp *atlas.VP, down []faults.Window, m int, w *atlas.Walk) {
	isDown, end := churnAt(down, m)
	sp.kind, sp.end = spanTimeout, end
	switch {
	case isDown:
		sp.kind = spanNoData
		return
	case vp.Hijacked:
		sp.kind = spanBogus
		return
	case ls == nil:
		return
	}
	if m >= sp.epochEnd {
		e := ls.epochIndexAt(m)
		sp.epochEnd = math.MaxInt
		if e+1 < len(ls.epochs) {
			sp.epochEnd = ls.epochs[e+1].Start
		}
		if site := ls.epochs[e].Table.SiteOf(vp.ASN); site != sp.row.site {
			sp.row.site = site
			if site >= 0 {
				ev.fillSiteRow(&sp.row, ls, vp, w)
			}
		}
	}
	sp.end = min(sp.end, sp.epochEnd)
	if sp.row.site < 0 {
		return
	}
	st, end := sp.row.steps.span(m)
	sp.end = min(sp.end, end)
	if !st.route {
		return
	}
	loss := st.lossFrac()
	sp.delay = st.delayMs()
	// Collateral damage applies to letters that are not directly under
	// attack but share a stressed city (§3.6, Figure 14). Root sites have
	// their own uplinks, so shared-facility stress costs them a bounded
	// fraction of queries — unlike the rack-sharing .nl nodes.
	if sp.row.excess != nil {
		excess, end := sp.row.excess.span(m)
		sp.end = min(sp.end, end)
		cl := collateralLoss(math.Float64frombits(excess), collateralFullQPS)
		if cl > 0.45 {
			cl = 0.45
		}
		loss = 1 - (1-loss)*(1-cl)
	}
	sp.loss = loss
	sp.kind = spanLossy
	if loss <= 0 {
		// A lossless site answers from the hashed server with the site's
		// delay: netsim.ProbeServer's own first case.
		sp.kind = spanLossless
	}
}

// fillSiteRow resolves the rest of the row of row.site, one of the letter's
// sites, for a vantage point, and registers the site's identity strings with
// the walk. A walk that routing moves back to a site registers its strings
// again; the table just holds them twice.
func (ev *Evaluator) fillSiteRow(row *siteRow, ls *letterState, vp *atlas.VP, w *atlas.Walk) {
	site := row.site
	row.s = ls.letter.Sites[site]
	row.steps = &ls.sites[site]
	row.baseRTT = ev.cityRTTIdx(ev.vpCity[vp.ID], ls.siteCity[site])
	row.nServers = uint64(row.s.NumServers)
	row.identity = w.AddIdentities(ls.txt[site])
	row.excess = nil
	if ci := ls.siteCity[site]; !ls.targeted && ci >= 0 {
		row.excess = &ev.cityExcess[ci]
	}
}

// server is a probe's server behind the site's load balancer, hashed from
// the walk and the minute's 4-minute slot.
//
//repolint:hot
func (row *siteRow) server(serverKey uint64, m int) int {
	server := 1
	if n := row.nServers; n > 1 {
		h := mix64(serverKey ^ uint64(uint32(uint(m)/4))) // m >= 0
		if n&(n-1) == 0 {
			server += int(h & (n - 1)) // h % n without the division
		} else {
			server += int(h % n)
		}
	}
	return server
}

// churnAt reports whether a churn window of the walk's vantage point
// contains minute m, and the first minute after m at which that can change
// (math.MaxInt when none can).
//
//repolint:hot
func churnAt(down []faults.Window, m int) (bool, int) {
	isDown, edge := false, math.MaxInt
	for _, w := range down {
		switch {
		case w.Contains(m):
			isDown, edge = true, min(edge, w.End)
		case w.Start > m:
			edge = min(edge, w.Start)
		}
	}
	return isDown, edge
}

// coin returns a deterministic uniform [0,1) draw for one probe: walkKey
// carries the run's seed, the vantage point and the letter, and salt tells
// the probe's independent draws apart.
func coin(walkKey uint64, minute int, salt uint64) float64 {
	return float64(mix64(walkKey^uint64(uint32(minute))^salt<<56)>>11) / float64(1<<53)
}
