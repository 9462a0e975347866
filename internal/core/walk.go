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
// point at one site: the site's per-minute service columns and everything
// about the (vantage point, site) pair that does not depend on the minute.
type siteRow struct {
	site     int
	s        *anycast.Site
	hasRoute []bool
	loss     []float32
	delay    []float32
	// excess is the city's over-capacity load per minute when the letter is
	// not itself targeted and so suffers only collateral loss there; nil
	// otherwise.
	excess []float64
	// baseRTT is the geographic RTT between the vantage point and the site.
	baseRTT  float64
	nServers uint64
	// identity is the walk-table Identity of the site's server 0; server n's
	// is identity+n.
	identity uint32
}

// ProbeWalk implements atlas.WalkWorld: it answers the probes of one vantage
// point toward one letter at minutes first, first+interval, ... This is the
// measurement hot path — VPs × letters walks of hundreds of probes each — and
// the only model of a probe (ProbeOutcome is its one-probe case). What the
// probes share is resolved once: letter state, vantage-point city, hijack and
// churn membership and the coin keys per walk; the serving site's row and
// identity strings each time routing moves the vantage point to another
// site. A probe itself is a few column loads, the balancer hash and the RTT
// coin; the walk allocates nothing.
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

	// The routing epoch in force and the minute it is superseded at; the row
	// of the site it routes the vantage point to (row.site < 0: to none).
	epochIdx, epochEnd := -1, math.MinInt
	var row siteRow
	row.site = -1

	minute := first - interval
	for i := range probes {
		minute += interval
		m := minute
		p := &probes[i]
		if m < 0 {
			// A negative minute is misuse, not a moment of the simulation.
			p.Set(atlas.Timeout, 0, 0, 0, 0)
			continue
		}
		if m > lastMinute {
			m = lastMinute
		}
		if isDown(down, m) {
			p.Set(atlas.NoData, 0, 0, 0, 0)
			continue
		}
		if vp.Hijacked {
			// A third-party resolver intercepts the query: instant bogus
			// identity at an implausibly short RTT (§2.4.1).
			p.Set(atlas.OK, 0, 0, 2+3*coin(coinKey, m, 1), bogus)
			continue
		}
		if ls == nil {
			p.Set(atlas.Timeout, 0, 0, 0, 0)
			continue
		}
		if m >= epochEnd {
			if epochIdx < 0 {
				epochIdx = ls.epochIndexAt(m)
			}
			for epochIdx+1 < len(ls.epochs) && ls.epochs[epochIdx+1].Start <= m {
				epochIdx++
			}
			epochEnd = math.MaxInt
			if epochIdx+1 < len(ls.epochs) {
				epochEnd = ls.epochs[epochIdx+1].Start
			}
			if site := ls.epochs[epochIdx].Table.SiteOf(vp.ASN); site != row.site {
				row.site = site
				if site >= 0 {
					ev.fillSiteRow(&row, ls, vp, w)
				}
			}
		}
		if row.site < 0 || !row.hasRoute[m] {
			p.Set(atlas.Timeout, 0, 0, 0, 0)
			continue
		}

		loss := float64(row.loss[m])
		delay := float64(row.delay[m])
		// Collateral damage applies to letters that are not directly under
		// attack but share a stressed city (§3.6, Figure 14). Root sites
		// have their own uplinks, so shared-facility stress costs them a
		// bounded fraction of queries — unlike the rack-sharing .nl nodes.
		if row.excess != nil {
			cl := collateralLoss(row.excess[m], collateralFullQPS)
			if cl > 0.45 {
				cl = 0.45
			}
			loss = 1 - (1-loss)*(1-cl)
		}

		// Server selection behind the load balancer.
		server := 1
		if n := row.nServers; n > 1 {
			h := mix64(serverKey ^ uint64(uint32(m/4)))
			if n&(n-1) == 0 {
				server += int(h & (n - 1)) // h % n without the division
			} else {
				server += int(h % n)
			}
		}
		if !(loss <= 0) {
			// A lossless site answers from the hashed server with the site's
			// delay (netsim.ProbeServer's own first case); only a stressed
			// one needs the per-server view and the loss coin.
			var responds bool
			var srvLoss float64
			server, responds, srvLoss, delay = netsim.ProbeServer(row.s,
				netsim.State{LossFrac: loss, ExtraDelayMs: delay}, ev.Cfg.Netsim, int(ev.evActive[m])+1, server)
			if !responds || coin(coinKey, m, 2) < srvLoss {
				p.Set(atlas.Timeout, 0, 0, 0, 0)
				continue
			}
		}

		// RTT: geography plus queueing, with mild multiplicative jitter.
		p.Set(atlas.OK, row.site, server, (row.baseRTT+delay)*(0.92+0.16*coin(coinKey, m, 3)), row.identity+uint32(server))
	}
}

// fillSiteRow resolves the rest of the row of row.site, one of the letter's
// sites, for a vantage point, and registers the site's identity strings with
// the walk. A walk that routing moves back to a site registers its strings
// again; the table just holds them twice.
func (ev *Evaluator) fillSiteRow(row *siteRow, ls *letterState, vp *atlas.VP, w *atlas.Walk) {
	site := row.site
	row.s = ls.letter.Sites[site]
	row.hasRoute = ls.hasRoute[site]
	row.loss = ls.loss[site]
	row.delay = ls.delay[site]
	row.baseRTT = ev.cityRTTIdx(ev.vpCity[vp.ID], ls.siteCity[site])
	row.nServers = uint64(row.s.NumServers)
	row.identity = w.AddIdentities(ls.txt[site])
	row.excess = nil
	if ci := ls.siteCity[site]; !ls.targeted && ci >= 0 {
		row.excess = ev.cityExcess[ci]
	}
}

// isDown reports whether a churn window of the walk's vantage point contains
// the minute.
func isDown(down []faults.Window, minute int) bool {
	for _, w := range down {
		if w.Contains(minute) {
			return true
		}
	}
	return false
}

// coin returns a deterministic uniform [0,1) draw for one probe: walkKey
// carries the run's seed, the vantage point and the letter, and salt tells
// the probe's independent draws apart.
func coin(walkKey uint64, minute int, salt uint64) float64 {
	return float64(mix64(walkKey^uint64(uint32(minute))^salt<<56)>>11) / float64(1<<53)
}
