package core

import (
	"fmt"

	"github.com/rootevent/anycastddos/internal/topo"
)

// Upstream adapts the completed simulation to the resolver package's view:
// one query attempt from a client AS to one letter at one minute. Each
// call draws a fresh deterministic coin, so retries within a minute are
// independent trials (unlike Atlas probes, which are single-shot).
type Upstream struct {
	ev   *Evaluator
	asn  topo.ASN
	city int32 // the AS's city index, -1 when unknown
	salt uint64
	seq  uint64
}

// Upstream returns a resolver-facing query interface for a client AS.
// The salt separates independent resolver populations.
func (ev *Evaluator) Upstream(asn topo.ASN, salt int64) (*Upstream, error) {
	if !ev.ran {
		return nil, fmt.Errorf("core: Run() must complete before Upstream()")
	}
	if int(asn) < 0 || int(asn) >= ev.Graph.N() {
		return nil, fmt.Errorf("core: unknown AS %d", asn)
	}
	return &Upstream{ev: ev, asn: asn, city: ev.asnCity[asn], salt: uint64(salt)}, nil
}

// Query implements resolver.Upstream against the simulated event.
//
//repolint:hot
func (u *Upstream) Query(letter byte, minute int) (bool, float64) {
	ev := u.ev
	if minute < 0 {
		minute = 0
	}
	if minute >= ev.Cfg.Minutes {
		minute = ev.Cfg.Minutes - 1
	}
	ls := ev.letterTab[letter]
	if ls == nil {
		return false, 0
	}
	ep := ls.epochAt(minute)
	if ep == nil {
		return false, 0
	}
	site := ep.Table.SiteOf(u.asn)
	if site < 0 {
		return false, 0
	}
	st := ls.sites[site].get(minute)
	if !st.route {
		return false, 0
	}
	loss, delay := st.lossFrac(), st.delayMs()
	siteCity := ls.siteCity[site]
	if !ls.targeted && siteCity >= 0 {
		cl := collateralLoss(ev.excessAt(siteCity, minute), collateralFullQPS)
		if cl > 0.45 {
			cl = 0.45
		}
		loss = 1 - (1-loss)*(1-cl)
	}
	u.seq++
	coin := float64(mix64(u.salt^uint64(u.asn)<<28^uint64(letter)<<20^uint64(uint32(minute))^u.seq<<44)>>11) / float64(1<<53)
	if coin < loss {
		return false, 0
	}
	base := ev.cityRTTIdx(u.city, siteCity)
	rtt := base + delay
	if rtt >= netsimTimeoutMs {
		return false, 0
	}
	return true, rtt
}

// netsimTimeoutMs is the resolver-side per-attempt timeout, aligned with
// resolver.AttemptTimeoutMs but kept independent so the packages do not
// import each other.
const netsimTimeoutMs = 1000
