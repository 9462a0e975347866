package faults

import (
	"math"
	"testing"
)

// refCompiled is Compiled as it was before lookups went dense: events
// bucketed per letter in a map, every lookup a map access and a scan of the
// whole bucket. It exists only as the reference the dense view is compared
// against, float for float.
type refCompiled struct {
	byLetter map[byte]*refLetter
}

type refLetter struct {
	outages, flaps, degrades, bursts, gaps []Event
}

func refCompile(p *Plan, sh Shape) *refCompiled {
	c := &refCompiled{byLetter: map[byte]*refLetter{}}
	for _, e := range p.Events {
		if e.Kind == VPChurn {
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
			lf := c.byLetter[l]
			if lf == nil {
				lf = &refLetter{}
				c.byLetter[l] = lf
			}
			ev := e
			if ev.Site != AnySite {
				if n := sh.Sites[l]; n > 0 {
					ev.Site %= n
				}
			}
			switch ev.Kind {
			case SiteOutage:
				lf.outages = append(lf.outages, ev)
			case LinkFlap:
				lf.flaps = append(lf.flaps, ev)
			case CapacityDegrade:
				lf.degrades = append(lf.degrades, ev)
			case PacketLossBurst:
				lf.bursts = append(lf.bursts, ev)
			case MonitorGap:
				lf.gaps = append(lf.gaps, ev)
			}
		}
	}
	return c
}

func (c *refCompiled) SiteForcedDown(letter byte, site, uplink, nUplinks, minute int) bool {
	lf := c.byLetter[letter]
	if lf == nil {
		return false
	}
	for _, e := range lf.outages {
		if e.ActiveAt(minute) && matches(e, site) {
			return true
		}
	}
	for _, e := range lf.flaps {
		if !e.ActiveAt(minute) || !matches(e, site) {
			continue
		}
		if nUplinks <= 1 || int(e.Seed%uint64(nUplinks)) == uplink {
			return true
		}
	}
	return false
}

func (c *refCompiled) CapacityFactor(letter byte, site, minute int) float64 {
	lf := c.byLetter[letter]
	if lf == nil {
		return 1
	}
	f := 1.0
	for _, e := range lf.degrades {
		if e.ActiveAt(minute) && matches(e, site) {
			f *= 1 - e.Severity
		}
	}
	if f < 0.02 {
		f = 0.02
	}
	return f
}

func (c *refCompiled) ExtraLossFrac(letter byte, site, minute int) float64 {
	lf := c.byLetter[letter]
	if lf == nil {
		return 0
	}
	keep := 1.0
	for _, e := range lf.bursts {
		if e.ActiveAt(minute) && matches(e, site) {
			keep *= 1 - e.Severity
		}
	}
	return 1 - keep
}

func (c *refCompiled) MonitorGapAt(letter byte, minute int) bool {
	lf := c.byLetter[letter]
	if lf == nil {
		return false
	}
	for _, e := range lf.gaps {
		if e.ActiveAt(minute) {
			return true
		}
	}
	return false
}

// rootShape is a 13-letter shape with uneven site counts, like the root
// deployment's.
func rootShape(minutes int) Shape {
	sh := Shape{Minutes: minutes, Sites: map[byte]int{}}
	for i, l := range []byte(rootLetters) {
		sh.Sites[l] = 1 + (i*5)%11
	}
	return sh
}

// TestDenseViewMatchesReference checks the dense per-letter view against
// the map-and-scan reference at every (letter, site, uplink, minute) of a
// 13-letter shape — floats bit for bit — and a few minutes past both ends
// of the horizon, where the per-minute early-outs do not apply. The
// built-in random profiles are sparse, so a crowded one (many overlapping
// windows, wildcard letters and sites) rides along.
func TestDenseViewMatchesReference(t *testing.T) {
	crowded := HeavyProfile()
	crowded.Name, crowded.Minutes, crowded.Events, crowded.MaxSite = "crowded", 300, 120, 12
	crowded.Letters = []byte("ABK")
	profiles := []Profile{LightProfile(), HeavyProfile(), MonitorProfile(), crowded}
	for _, pr := range profiles {
		for seed := int64(1); seed <= 3; seed++ {
			plan := RandomPlan(seed, pr)
			if pr.Name == "crowded" {
				// Wildcards: every third event hits all letters or all sites.
				for i := range plan.Events {
					switch e := &plan.Events[i]; {
					case e.Kind == VPChurn:
					case i%6 == 0:
						e.Letter = AnyLetter
					case i%6 == 3:
						e.Site = AnySite
					}
				}
			}
			minutes := 480
			if pr.Name != "crowded" {
				minutes = 2880 // the built-in profiles draw over two days
			}
			sh := rootShape(minutes)
			c, err := Compile(plan, sh)
			if err != nil {
				t.Fatal(err)
			}
			ref := refCompile(plan, sh)
			compared, faulted := 0, 0
			for l, nSites := range sh.Sites {
				view := c.Letter(l)
				for minute := -2; minute < minutes+3; minute++ {
					if got, want := view.MonitorGapAt(minute), ref.MonitorGapAt(l, minute); got != want || c.MonitorGapAt(l, minute) != want {
						t.Fatalf("%s seed %d: MonitorGapAt(%c, %d) = %v, reference %v", pr.Name, seed, l, minute, got, want)
					}
					for site := 0; site < nSites; site++ {
						gotF, wantF := view.CapacityFactor(site, minute), ref.CapacityFactor(l, site, minute)
						gotX, wantX := view.ExtraLossFrac(site, minute), ref.ExtraLossFrac(l, site, minute)
						if math.Float64bits(gotF) != math.Float64bits(wantF) || c.CapacityFactor(l, site, minute) != wantF {
							t.Fatalf("%s seed %d: CapacityFactor(%c, %d, %d) = %v, reference %v", pr.Name, seed, l, site, minute, gotF, wantF)
						}
						if math.Float64bits(gotX) != math.Float64bits(wantX) || c.ExtraLossFrac(l, site, minute) != wantX {
							t.Fatalf("%s seed %d: ExtraLossFrac(%c, %d, %d) = %v, reference %v", pr.Name, seed, l, site, minute, gotX, wantX)
						}
						if wantF != 1 || wantX != 0 {
							faulted++
						}
						for nUp := 1; nUp <= 3; nUp++ {
							for up := 0; up < nUp; up++ {
								want := ref.SiteForcedDown(l, site, up, nUp, minute)
								if got := view.SiteForcedDown(site, up, nUp, minute); got != want || c.SiteForcedDown(l, site, up, nUp, minute) != want {
									t.Fatalf("%s seed %d: SiteForcedDown(%c, %d, %d/%d, %d) = %v, reference %v", pr.Name, seed, l, site, up, nUp, minute, got, want)
								}
								if want {
									faulted++
								}
								compared++
							}
						}
						// A steady minute promises last minute's factors.
						if minute > 0 && minute < minutes && view.ServiceSteadyAt(minute) {
							if ref.CapacityFactor(l, site, minute-1) != wantF || ref.ExtraLossFrac(l, site, minute-1) != wantX {
								t.Fatalf("%s seed %d: ServiceSteadyAt(%c, %d) but site %d's factors moved", pr.Name, seed, l, minute, site)
							}
						}
					}
				}
			}
			if pr.Name != "monitor" && faulted == 0 {
				t.Errorf("%s seed %d: %d lookups compared, none of them faulted", pr.Name, seed, compared)
			}
		}
	}
	// A letter outside the shape, and a nil view, answer "no fault".
	c, err := Compile(RandomPlan(1, HeavyProfile()), rootShape(2880))
	if err != nil {
		t.Fatal(err)
	}
	var none *Letter
	if c.Letter('z') != nil || none.SiteForcedDown(0, 0, 1, 5) || none.CapacityFactor(0, 5) != 1 ||
		none.ExtraLossFrac(0, 5) != 0 || none.MonitorGapAt(5) || !none.ServiceSteadyAt(5) {
		t.Error("absent letter reports a fault")
	}
}
