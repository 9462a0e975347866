package netsim

// SiteObs is what a controller may observe about one site for one minute —
// exactly the operator-visible signals the paper lists in §2.2 (offered
// load is visible; attacker locations and other sites' catchments are not).
type SiteObs struct {
	Announced   bool
	CapacityQPS float64
	// OfferedQPS and ServedQPS are zero while withdrawn (no traffic
	// arrives to measure).
	OfferedQPS float64
	ServedQPS  float64
}

const (
	// adaptiveInterval is how often (minutes) the controller considers a
	// move.
	adaptiveInterval = 5
	// adaptiveMinGain is the served-fraction improvement required to keep
	// a trial withdrawal.
	adaptiveMinGain = 0.02
)

// Adaptive is the automated policy manager the paper sketches (§2.2, §5):
// it watches a letter's served fraction and hill-climbs one announcement
// change at a time, keeping a change only when feedback shows improvement.
// It needs none of the information operators lack (attack volume or
// origin) — only its own sites' offered/served counters. Healing probes
// (re-announcing a withdrawn site) back off exponentially while the attack
// persists, so the controller does not oscillate mid-event. It never
// withdraws its last announced site. The zero value starts with every site
// announced.
type Adaptive struct {
	state        []bool
	trialSites   []int // sites on trial (empty = no trial)
	trialHeal    bool
	trialStarted int
	baselineFrac float64
	lastDecision int
	healWait     int
	lastHeal     int
}

func servedFrac(sites []SiteObs) float64 {
	var served, offered float64
	for _, s := range sites {
		served += s.ServedQPS
		offered += s.OfferedQPS
	}
	if offered == 0 {
		return 1
	}
	return served / offered
}

// Decide takes one minute's observations, one per site, and returns the
// desired announcement state per site. The returned slice is the
// controller's own state: it holds until the next call and must not be
// modified. After the first call Decide does not allocate.
func (c *Adaptive) Decide(minute int, sites []SiteObs) []bool {
	if c.state == nil {
		c.state = make([]bool, len(sites))
		for i := range c.state {
			c.state[i] = true
		}
		c.trialSites = make([]int, 0, len(sites))
		c.healWait = 8 * adaptiveInterval
		c.lastHeal = -(1 << 20)
	}
	frac := servedFrac(sites)

	switch {
	case len(c.trialSites) > 0 && minute-c.trialStarted >= adaptiveInterval:
		// Judge the pending trial.
		if c.trialHeal {
			// A heal succeeds when service stays healthy with the site
			// back up; otherwise re-withdraw and back off.
			if frac >= c.baselineFrac-adaptiveMinGain {
				c.healWait = 8 * adaptiveInterval
			} else {
				for _, site := range c.trialSites {
					c.state[site] = false
				}
				if c.healWait < 1440 {
					c.healWait *= 2
				}
			}
		} else if frac < c.baselineFrac+adaptiveMinGain {
			// The withdrawals did not help yet. If the shed load merely
			// moved onto other sites and overloaded them (the waterbed),
			// grow the trial set and keep going; revert only when there
			// is nothing left to shed.
			announcedCount := 0
			for _, up := range c.state {
				if up {
					announcedCount++
				}
			}
			grown := false
			for i, s := range sites {
				if announcedCount <= 1 {
					break
				}
				if !s.Announced || s.CapacityQPS <= 0 {
					continue
				}
				if s.OfferedQPS/s.CapacityQPS >= 1.5 {
					c.trialSites = append(c.trialSites, i)
					c.state[i] = false
					announcedCount--
					grown = true
				}
			}
			if grown {
				c.trialStarted = minute
				c.lastDecision = minute
				break
			}
			for _, site := range c.trialSites {
				c.state[site] = true
			}
		}
		c.trialSites = c.trialSites[:0]
		c.lastDecision = minute
	case len(c.trialSites) == 0 && minute-c.lastDecision >= adaptiveInterval && frac < 0.999:
		// Service is degraded: trial-withdraw the overloaded sites as a
		// set (their catchments may be better served elsewhere — §2.2
		// cases 2-4; withdrawing only one site merely shifts the flood
		// onto the next small site). Keep at least one site announced.
		announcedCount := 0
		for _, up := range c.state {
			if up {
				announcedCount++
			}
		}
		const trialTrigger = 1.5
		for i, s := range sites {
			if announcedCount <= 1 {
				break
			}
			if !s.Announced || s.CapacityQPS <= 0 {
				continue
			}
			if s.OfferedQPS/s.CapacityQPS >= trialTrigger {
				if len(c.trialSites) == 0 {
					c.baselineFrac = frac
					c.trialHeal = false
					c.trialStarted = minute
				}
				c.trialSites = append(c.trialSites, i)
				c.state[i] = false
				announcedCount--
			}
		}
		c.lastDecision = minute
	case frac >= 0.999 && len(c.trialSites) == 0 && minute-c.lastHeal >= c.healWait:
		// Service is healthy: probe re-announcing one withdrawn site so
		// the deployment heals after the attack ends. Failed heals back
		// off exponentially, so mid-event probing stays cheap.
		for i, up := range c.state {
			if !up {
				c.baselineFrac = frac
				c.trialSites = append(c.trialSites, i)
				c.trialHeal = true
				c.trialStarted = minute
				c.state[i] = true
				break
			}
		}
		c.lastHeal = minute
		c.lastDecision = minute
	}
	return c.state
}
