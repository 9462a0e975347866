package faults

import (
	"fmt"
)

// Shape describes the deployment a plan is compiled against: the run's
// minute horizon and each letter's site count. Compilation resolves
// wildcard letters and normalizes site indices so lookups during the run
// are cheap and allocation-free.
type Shape struct {
	Minutes int
	Sites   map[byte]int // letter -> number of sites
}

// kindEvents is one letter's events of one kind, in plan order, plus the
// minutes of the horizon at which any of them is in effect: most minutes of
// most letters are quiet, and a lookup there must cost one load.
type kindEvents struct {
	events []Event
	// live[m] reports whether some event is active at minute m; minutes
	// outside [0, len(live)) fall through to the event scan.
	live []bool
}

// quiet reports that no event of the kind is active at a minute.
//
//repolint:hot
func (k *kindEvents) quiet(minute int) bool {
	return len(k.events) == 0 || (uint(minute) < uint(len(k.live)) && !k.live[minute])
}

// add appends an event and marks its window inside the horizon.
func (k *kindEvents) add(e Event, minutes int) {
	if k.live == nil {
		k.live = make([]bool, minutes)
	}
	k.events = append(k.events, e)
	for m := e.Start; m < e.End() && m < minutes; m++ {
		k.live[m] = true
	}
}

// Letter is one letter's compiled faults, bucketed by kind with Site
// already normalized into [0, nSites) (or AnySite). The engine fetches it
// once per letter (Compiled.Letter) and asks it per site and minute; a nil
// *Letter is a letter without faults, and every lookup on it answers "no
// fault".
type Letter struct {
	outages   kindEvents
	flaps     kindEvents
	degrades  kindEvents
	bursts    kindEvents
	gaps      kindEvents
	probeLoss kindEvents
	// serviceEdge[m] reports that a CapacityDegrade or PacketLossBurst
	// window opens or closes at minute m of the horizon.
	serviceEdge []bool
}

// markServiceEdges records the minutes of the horizon at which e's window
// opens and closes.
func (lf *Letter) markServiceEdges(e Event, minutes int) {
	if lf.serviceEdge == nil {
		lf.serviceEdge = make([]bool, minutes)
	}
	for _, m := range [2]int{e.Start, e.End()} {
		if m < minutes {
			lf.serviceEdge[m] = true
		}
	}
}

// Compiled is a plan resolved against a shape. All lookup methods are
// read-only and safe for concurrent use from letter workers — events are
// pure data, so a faulted run stays byte-identical at any worker count.
type Compiled struct {
	plan *Plan
	// letters is indexed by letter byte; nLetters counts its non-nil slots.
	letters  [256]*Letter
	nLetters int
	churns   []Event // VPChurn is global to the measurement population
}

// Compile validates a plan and resolves it against a shape. Events whose
// Letter is AnyLetter expand to every letter of the shape; events naming
// a letter absent from the shape are dropped (plans are written against
// the full root deployment but also compile against the defense
// harness's single pseudo-letter). Events entirely past the horizon are
// kept but never active.
func Compile(p *Plan, sh Shape) (*Compiled, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if sh.Minutes < 1 {
		return nil, fmt.Errorf("%w: shape minutes %d", ErrBadPlan, sh.Minutes)
	}
	c := &Compiled{plan: p}
	if p == nil {
		return c, nil
	}
	for _, e := range p.Events {
		if e.Kind == VPChurn {
			c.churns = append(c.churns, e)
			continue
		}
		var targets []byte
		if e.Letter == AnyLetter {
			for l := range sh.Sites {
				targets = append(targets, l)
			}
		} else if _, ok := sh.Sites[e.Letter]; ok {
			targets = []byte{e.Letter}
		}
		for _, l := range targets {
			lf := c.letters[l]
			if lf == nil {
				lf = &Letter{}
				c.letters[l] = lf
				c.nLetters++
			}
			ev := e
			if ev.Site != AnySite {
				if n := sh.Sites[l]; n > 0 {
					ev.Site %= n
				}
			}
			switch ev.Kind {
			case SiteOutage:
				lf.outages.add(ev, sh.Minutes)
			case LinkFlap:
				lf.flaps.add(ev, sh.Minutes)
			case CapacityDegrade:
				lf.degrades.add(ev, sh.Minutes)
				lf.markServiceEdges(ev, sh.Minutes)
			case PacketLossBurst:
				lf.bursts.add(ev, sh.Minutes)
				lf.markServiceEdges(ev, sh.Minutes)
			case MonitorGap:
				lf.gaps.add(ev, sh.Minutes)
			case HealthProbeLoss:
				lf.probeLoss.add(ev, sh.Minutes)
			}
		}
	}
	return c, nil
}

// Plan returns the source plan.
func (c *Compiled) Plan() *Plan { return c.plan }

// Empty reports whether the compiled plan has no events at all.
func (c *Compiled) Empty() bool { return c.nLetters == 0 && len(c.churns) == 0 }

// Letter returns one letter's faults, nil when the plan has none for it.
func (c *Compiled) Letter(letter byte) *Letter { return c.letters[letter] }

func matches(e Event, site int) bool { return e.Site == AnySite || e.Site == site }

// SiteForcedDown reports whether a fault forces the given uplink of a
// letter's site down at a minute: a SiteOutage downs every uplink of the
// site, a LinkFlap downs the single uplink its event seed selects.
// uplink is the site-local uplink ordinal in [0, nUplinks).
func (c *Compiled) SiteForcedDown(letter byte, site, uplink, nUplinks, minute int) bool {
	return c.letters[letter].SiteForcedDown(site, uplink, nUplinks, minute)
}

// SiteForcedDown is Compiled.SiteForcedDown for this letter.
//
//repolint:hot
func (lf *Letter) SiteForcedDown(site, uplink, nUplinks, minute int) bool {
	if lf == nil {
		return false
	}
	if !lf.outages.quiet(minute) {
		for _, e := range lf.outages.events {
			if e.ActiveAt(minute) && matches(e, site) {
				return true
			}
		}
	}
	if lf.flaps.quiet(minute) {
		return false
	}
	for _, e := range lf.flaps.events {
		if !e.ActiveAt(minute) || !matches(e, site) {
			continue
		}
		if nUplinks <= 1 || int(e.Seed%uint64(nUplinks)) == uplink {
			return true
		}
	}
	return false
}

// CapacityFactor returns the fraction of a site's capacity that remains
// at a minute: overlapping CapacityDegrade events compose
// multiplicatively, clamped so the site never reaches exactly zero
// (SiteOutage is the kind that takes a site fully out).
func (c *Compiled) CapacityFactor(letter byte, site, minute int) float64 {
	return c.letters[letter].CapacityFactor(site, minute)
}

// CapacityFactor is Compiled.CapacityFactor for this letter.
//
//repolint:hot
func (lf *Letter) CapacityFactor(site, minute int) float64 {
	if lf == nil || lf.degrades.quiet(minute) {
		return 1
	}
	f := 1.0
	for _, e := range lf.degrades.events {
		if e.ActiveAt(minute) && matches(e, site) {
			f *= 1 - e.Severity
		}
	}
	if f < 0.02 {
		f = 0.02
	}
	return f
}

// ExtraLossFrac returns the additional path-loss fraction toward a
// letter's site at a minute; overlapping PacketLossBurst events compose
// as independent loss processes.
func (c *Compiled) ExtraLossFrac(letter byte, site, minute int) float64 {
	return c.letters[letter].ExtraLossFrac(site, minute)
}

// ExtraLossFrac is Compiled.ExtraLossFrac for this letter.
//
//repolint:hot
func (lf *Letter) ExtraLossFrac(site, minute int) float64 {
	if lf == nil || lf.bursts.quiet(minute) {
		return 0
	}
	keep := 1.0
	for _, e := range lf.bursts.events {
		if e.ActiveAt(minute) && matches(e, site) {
			keep *= 1 - e.Severity
		}
	}
	return 1 - keep
}

// ServiceSteadyAt reports that no CapacityDegrade or PacketLossBurst window
// of the letter opens or closes at a minute, so every site's
// CapacityFactor and ExtraLossFrac there equal the previous minute's.
// Minutes outside the compiled horizon are never steady.
//
//repolint:hot
func (lf *Letter) ServiceSteadyAt(minute int) bool {
	if lf == nil || lf.serviceEdge == nil {
		return true
	}
	return uint(minute) < uint(len(lf.serviceEdge)) && !lf.serviceEdge[minute]
}

// MonitorGapAt reports whether the letter's RSSAC-002 measurement is
// down at a minute.
func (c *Compiled) MonitorGapAt(letter byte, minute int) bool {
	return c.letters[letter].MonitorGapAt(minute)
}

// MonitorGapAt is Compiled.MonitorGapAt for this letter.
//
//repolint:hot
func (lf *Letter) MonitorGapAt(minute int) bool {
	if lf == nil || lf.gaps.quiet(minute) {
		return false
	}
	for _, e := range lf.gaps.events {
		if e.ActiveAt(minute) {
			return true
		}
	}
	return false
}

// ProbeDropped reports whether health-probe attempt number `attempt`
// toward a letter's site is swallowed by a HealthProbeLoss fault at a
// minute. The coin is a stable per-(event, attempt) hash, so a given
// attempt either always or never sees the drop — replays of the same
// probe schedule observe the same losses at any worker count.
func (c *Compiled) ProbeDropped(letter byte, site, minute int, attempt uint64) bool {
	lf := c.letters[letter]
	if lf == nil || lf.probeLoss.quiet(minute) {
		return false
	}
	for _, e := range lf.probeLoss.events {
		if !e.ActiveAt(minute) || !matches(e, site) {
			continue
		}
		if hashCoin(e.Seed, attempt) < e.Severity {
			return true
		}
	}
	return false
}

// VPDown reports whether a vantage point is disconnected at a minute.
// Membership in a churn event is a stable per-(event, VP) hash coin, so
// a churned VP stays down for the whole event window and reconnects when
// it clears.
func (c *Compiled) VPDown(vp int32, minute int) bool {
	for _, e := range c.churns {
		if !e.ActiveAt(minute) {
			continue
		}
		if hashCoin(e.Seed, uint64(uint32(vp))) < e.Severity {
			return true
		}
	}
	return false
}

// Window is a half-open span of minutes, [Start, End).
type Window struct{ Start, End int }

// Contains reports whether the minute lies inside the window.
func (w Window) Contains(minute int) bool { return minute >= w.Start && minute < w.End }

// AppendVPDownWindows appends to dst the window of every churn event the
// vantage point is a member of, in plan order, and returns the extended
// slice: VPDown(vp, m) is true exactly when one of them contains m. A caller
// answering many minutes for one VP draws the per-(event, VP) coins once
// here and compares minutes after that.
func (c *Compiled) AppendVPDownWindows(dst []Window, vp int32) []Window {
	for _, e := range c.churns {
		if hashCoin(e.Seed, uint64(uint32(vp))) < e.Severity {
			dst = append(dst, Window{Start: e.Start, End: e.End()})
		}
	}
	return dst
}

// hashCoin maps (seed, x) to a uniform float64 in [0, 1) via splitmix64.
func hashCoin(seed, x uint64) float64 {
	z := seed + x*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}
