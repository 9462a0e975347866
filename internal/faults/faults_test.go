package faults

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

func TestRandomPlanDeterministic(t *testing.T) {
	for _, pr := range []Profile{LightProfile(), HeavyProfile(), MonitorProfile()} {
		a := RandomPlan(42, pr)
		b := RandomPlan(42, pr)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("profile %s: same seed produced different plans", pr.Name)
		}
		c := RandomPlan(43, pr)
		if reflect.DeepEqual(a.Events, c.Events) {
			t.Fatalf("profile %s: different seeds produced identical plans", pr.Name)
		}
		if len(a.Events) != pr.Events {
			t.Fatalf("profile %s: got %d events, want %d", pr.Name, len(a.Events), pr.Events)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("profile %s: generated plan invalid: %v", pr.Name, err)
		}
	}
}

func TestRandomPlanRespectsProfileBounds(t *testing.T) {
	pr := HeavyProfile()
	for seed := int64(0); seed < 20; seed++ {
		p := RandomPlan(seed, pr)
		for i, e := range p.Events {
			if e.Start < 0 || e.Start >= pr.Minutes {
				t.Errorf("seed %d event %d: start %d outside horizon", seed, i, e.Start)
			}
			if e.Duration < pr.MinDuration || e.Duration > pr.MaxDuration {
				t.Errorf("seed %d event %d: duration %d outside [%d,%d]", seed, i, e.Duration, pr.MinDuration, pr.MaxDuration)
			}
			if e.Severity < 0 || e.Severity > 1 {
				t.Errorf("seed %d event %d: severity %v", seed, i, e.Severity)
			}
		}
	}
}

func TestPlanValidate(t *testing.T) {
	bad := []Event{
		{Kind: numKinds, Start: 0, Duration: 1},
		{Kind: SiteOutage, Start: -1, Duration: 1},
		{Kind: SiteOutage, Start: 0, Duration: 0},
		{Kind: CapacityDegrade, Start: 0, Duration: 1, Severity: 1},
		{Kind: PacketLossBurst, Start: 0, Duration: 1, Severity: 1.5},
		{Kind: SiteOutage, Start: 0, Duration: 1, Site: -2},
	}
	for i, e := range bad {
		p := &Plan{Events: []Event{e}}
		if err := p.Validate(); !errors.Is(err, ErrBadPlan) {
			t.Errorf("case %d: want ErrBadPlan, got %v", i, err)
		}
	}
	var nilPlan *Plan
	if err := nilPlan.Validate(); err != nil {
		t.Errorf("nil plan should validate: %v", err)
	}
}

func TestPlanString(t *testing.T) {
	p := &Plan{Name: "demo", Events: []Event{
		{Kind: SiteOutage, Start: 10, Duration: 5, Letter: 'K'},
		{Kind: SiteOutage, Start: 30, Duration: 5, Letter: 'B'},
		{Kind: MonitorGap, Start: 0, Duration: 5, Letter: 'K'},
	}}
	s := p.String()
	for _, want := range []string{"demo", "3 events", "2 site-outage", "1 monitor-gap"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

func testShape() Shape {
	return Shape{Minutes: 100, Sites: map[byte]int{'K': 3, 'B': 2}}
}

func TestCompileSiteOutage(t *testing.T) {
	p := &Plan{Events: []Event{
		{Kind: SiteOutage, Start: 10, Duration: 20, Letter: 'K', Site: 1, Severity: 1},
	}}
	c, err := Compile(p, testShape())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		letter       byte
		site, minute int
		want         bool
	}{
		{'K', 1, 9, false},
		{'K', 1, 10, true},
		{'K', 1, 29, true},
		{'K', 1, 30, false},
		{'K', 0, 15, false},
		{'B', 1, 15, false},
	}
	for _, tc := range cases {
		// An outage must down every uplink of the site.
		for up := 0; up < 3; up++ {
			if got := c.SiteForcedDown(tc.letter, tc.site, up, 3, tc.minute); got != tc.want {
				t.Errorf("SiteForcedDown(%c, site %d, uplink %d, minute %d) = %v, want %v",
					tc.letter, tc.site, up, tc.minute, got, tc.want)
			}
		}
	}
}

func TestCompileLinkFlapHitsOneUplink(t *testing.T) {
	p := &Plan{Events: []Event{
		{Kind: LinkFlap, Start: 0, Duration: 50, Letter: 'K', Site: 0, Severity: 1, Seed: 7},
	}}
	c, err := Compile(p, testShape())
	if err != nil {
		t.Fatal(err)
	}
	const nUplinks = 4
	down := 0
	for up := 0; up < nUplinks; up++ {
		if c.SiteForcedDown('K', 0, up, nUplinks, 25) {
			down++
		}
	}
	if down != 1 {
		t.Errorf("link flap downed %d of %d uplinks, want exactly 1", down, nUplinks)
	}
	// A single-uplink site loses its only transit.
	if !c.SiteForcedDown('K', 0, 0, 1, 25) {
		t.Error("link flap should down a single-uplink site")
	}
	if c.SiteForcedDown('K', 0, 0, 1, 50) {
		t.Error("link flap should clear at End()")
	}
}

func TestCompileWildcardsAndNormalization(t *testing.T) {
	p := &Plan{Events: []Event{
		// Wildcard letter + wildcard site: everything is out.
		{Kind: SiteOutage, Start: 0, Duration: 10, Letter: AnyLetter, Site: AnySite, Severity: 1},
		// Site 7 normalizes modulo K's 3 sites to site 1.
		{Kind: SiteOutage, Start: 50, Duration: 10, Letter: 'K', Site: 7, Severity: 1},
	}}
	c, err := Compile(p, testShape())
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []byte{'K', 'B'} {
		if !c.SiteForcedDown(l, 0, 0, 1, 5) {
			t.Errorf("wildcard outage missed letter %c", l)
		}
	}
	if !c.SiteForcedDown('K', 1, 0, 1, 55) {
		t.Error("site 7 should normalize to site 1 of a 3-site letter")
	}
	if c.SiteForcedDown('K', 2, 0, 1, 55) {
		t.Error("normalized outage hit the wrong site")
	}
}

func TestCompileCapacityAndLoss(t *testing.T) {
	p := &Plan{Events: []Event{
		{Kind: CapacityDegrade, Start: 0, Duration: 10, Letter: 'K', Site: 0, Severity: 0.5},
		{Kind: CapacityDegrade, Start: 5, Duration: 10, Letter: 'K', Site: 0, Severity: 0.5},
		{Kind: PacketLossBurst, Start: 0, Duration: 10, Letter: 'K', Site: 0, Severity: 0.4},
	}}
	c, err := Compile(p, testShape())
	if err != nil {
		t.Fatal(err)
	}
	if got := c.CapacityFactor('K', 0, 2); got != 0.5 {
		t.Errorf("single degrade: factor %v, want 0.5", got)
	}
	if got := c.CapacityFactor('K', 0, 7); got != 0.25 {
		t.Errorf("overlapping degrades: factor %v, want 0.25", got)
	}
	if got := c.CapacityFactor('K', 0, 20); got != 1 {
		t.Errorf("after window: factor %v, want 1", got)
	}
	if got := c.CapacityFactor('B', 0, 2); got != 1 {
		t.Errorf("untargeted letter: factor %v, want 1", got)
	}
	if got := c.ExtraLossFrac('K', 0, 2); got != 0.4 {
		t.Errorf("burst loss %v, want 0.4", got)
	}
	if got := c.ExtraLossFrac('K', 0, 20); got != 0 {
		t.Errorf("after window: loss %v, want 0", got)
	}
}

func TestCompileCapacityFactorClamped(t *testing.T) {
	var evs []Event
	for i := 0; i < 8; i++ {
		evs = append(evs, Event{Kind: CapacityDegrade, Start: 0, Duration: 10, Letter: 'K', Site: 0, Severity: 0.9})
	}
	c, err := Compile(&Plan{Events: evs}, testShape())
	if err != nil {
		t.Fatal(err)
	}
	if got := c.CapacityFactor('K', 0, 5); got <= 0 {
		t.Errorf("stacked degrades must keep capacity positive, got %v", got)
	}
}

func TestVPChurnStableMembership(t *testing.T) {
	p := &Plan{Events: []Event{
		{Kind: VPChurn, Start: 10, Duration: 30, Letter: AnyLetter, Site: AnySite, Severity: 0.5, Seed: 99},
	}}
	c, err := Compile(p, testShape())
	if err != nil {
		t.Fatal(err)
	}
	down := 0
	const vps = 2000
	for vp := int32(0); vp < vps; vp++ {
		first := c.VPDown(vp, 10)
		if first {
			down++
		}
		// Membership must hold for the whole window...
		for _, m := range []int{15, 25, 39} {
			if c.VPDown(vp, m) != first {
				t.Fatalf("vp %d flip-flopped mid-window", vp)
			}
		}
		// ...and clear outside it.
		if c.VPDown(vp, 9) || c.VPDown(vp, 40) {
			t.Fatalf("vp %d down outside window", vp)
		}
	}
	if frac := float64(down) / vps; frac < 0.4 || frac > 0.6 {
		t.Errorf("churned fraction %v far from severity 0.5", frac)
	}
}

// TestVPDownWindowsMatchVPDown pins the per-VP form of churn membership to
// the per-probe one: for every vantage point and minute of random heavy
// plans, some window AppendVPDownWindows returns contains the minute exactly
// when VPDown says the VP is disconnected.
func TestVPDownWindowsMatchVPDown(t *testing.T) {
	for _, seed := range []int64{1, 3, 7, 23} {
		sh := Shape{Minutes: 2880, Sites: testShape().Sites} // RandomPlan's horizon
		c, err := Compile(RandomPlan(seed, HeavyProfile()), sh)
		if err != nil {
			t.Fatal(err)
		}
		if len(c.churns) == 0 {
			t.Fatalf("seed %d: heavy plan without churn", seed)
		}
		var buf [2]Window
		members := 0
		for vp := int32(0); vp < 300; vp++ {
			wins := c.AppendVPDownWindows(buf[:0], vp)
			members += len(wins)
			for m := -5; m < sh.Minutes+50; m++ {
				down := false
				for _, w := range wins {
					down = down || w.Contains(m)
				}
				if want := c.VPDown(vp, m); down != want {
					t.Fatalf("seed %d vp %d minute %d: windows %v say down=%v, VPDown %v", seed, vp, m, wins, down, want)
				}
			}
		}
		if members == 0 {
			t.Errorf("seed %d: no vantage point is a member of any churn event", seed)
		}
	}
}

func TestMonitorGapAt(t *testing.T) {
	p := &Plan{Events: []Event{
		{Kind: MonitorGap, Start: 20, Duration: 15, Letter: 'K', Site: AnySite},
	}}
	c, err := Compile(p, testShape())
	if err != nil {
		t.Fatal(err)
	}
	if c.MonitorGapAt('K', 19) || !c.MonitorGapAt('K', 20) || !c.MonitorGapAt('K', 34) || c.MonitorGapAt('K', 35) {
		t.Error("gap window boundaries wrong")
	}
	if c.MonitorGapAt('B', 25) {
		t.Error("gap leaked to untargeted letter")
	}
}

func TestCompileRejectsBadInput(t *testing.T) {
	if _, err := Compile(&Plan{Events: []Event{{Kind: numKinds, Duration: 1}}}, testShape()); !errors.Is(err, ErrBadPlan) {
		t.Errorf("bad event: want ErrBadPlan, got %v", err)
	}
	if _, err := Compile(&Plan{}, Shape{Minutes: 0}); !errors.Is(err, ErrBadPlan) {
		t.Errorf("bad shape: want ErrBadPlan, got %v", err)
	}
	c, err := Compile(nil, testShape())
	if err != nil {
		t.Fatalf("nil plan: %v", err)
	}
	if !c.Empty() {
		t.Error("nil plan should compile empty")
	}
}

func TestCompileDropsUnknownLetters(t *testing.T) {
	p := &Plan{Events: []Event{
		{Kind: SiteOutage, Start: 0, Duration: 10, Letter: 'Z', Site: 0, Severity: 1},
	}}
	c, err := Compile(p, testShape())
	if err != nil {
		t.Fatal(err)
	}
	if !c.Empty() {
		t.Error("event for a letter outside the shape should be dropped")
	}
}

func TestProfileByName(t *testing.T) {
	for _, name := range []string{"light", "heavy", "monitor"} {
		pr, err := ProfileByName(name)
		if err != nil || pr.Name != name {
			t.Errorf("ProfileByName(%q) = %v, %v", name, pr.Name, err)
		}
	}
	if _, err := ProfileByName("nope"); !errors.Is(err, ErrBadPlan) {
		t.Errorf("unknown profile: want ErrBadPlan, got %v", err)
	}
}

func TestHealthProbeLossCompiled(t *testing.T) {
	p := &Plan{Name: "probe-loss", Events: []Event{
		{Kind: HealthProbeLoss, Start: 10, Duration: 20, Letter: 'K', Site: 1, Severity: 0.5, Seed: 42},
	}}
	c, err := Compile(p, Shape{Minutes: 60, Sites: map[byte]int{'K': 3}})
	if err != nil {
		t.Fatal(err)
	}
	// Outside the window or at the wrong site, nothing drops.
	for a := uint64(0); a < 50; a++ {
		if c.ProbeDropped('K', 1, 5, a) {
			t.Fatalf("attempt %d dropped outside the window", a)
		}
		if c.ProbeDropped('K', 0, 15, a) {
			t.Fatalf("attempt %d dropped at untargeted site", a)
		}
	}
	// Inside the window roughly half the attempts drop, deterministically.
	dropped := 0
	for a := uint64(0); a < 1000; a++ {
		d := c.ProbeDropped('K', 1, 15, a)
		if d != c.ProbeDropped('K', 1, 15, a) {
			t.Fatalf("attempt %d coin not stable", a)
		}
		if d {
			dropped++
		}
	}
	if dropped < 400 || dropped > 600 {
		t.Fatalf("severity 0.5 dropped %d/1000 attempts", dropped)
	}
}

func TestHealthMonProfileValidates(t *testing.T) {
	pr, err := ProfileByName("healthmon")
	if err != nil {
		t.Fatal(err)
	}
	p := RandomPlan(7, pr)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := HealthProbeLoss.String(); got != "health-probe-loss" {
		t.Fatalf("String() = %q", got)
	}
}
