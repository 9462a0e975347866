package netsim

import "testing"

// toyLetter is a scripted deployment for Adaptive: site i has capacity
// caps[i] and its own offered load load(minute)[i]; a withdrawn site's load
// lands on the highest-indexed announced site (its catchment's next choice).
type toyLetter struct {
	caps []float64
	load func(minute int) []float64
	obs  []SiteObs
}

// observe fills t.obs for one minute under the announcement state up.
func (t *toyLetter) observe(minute int, up []bool) []SiteObs {
	load := t.load(minute)
	fallback := -1
	for i := range up {
		if up[i] {
			fallback = i
		}
	}
	for i := range t.obs {
		t.obs[i] = SiteObs{Announced: up[i], CapacityQPS: t.caps[i]}
	}
	for i, l := range load {
		to := i
		if !up[i] {
			to = fallback
		}
		if to >= 0 {
			t.obs[to].OfferedQPS += l
		}
	}
	for i := range t.obs {
		t.obs[i].ServedQPS = min(t.obs[i].OfferedQPS, t.caps[i])
	}
	return t.obs
}

// run drives c through minutes [0, minutes) in closed loop — each minute's
// decision shapes the next minute's observations, as in the engine — and
// returns the announcement state in force at every minute.
func (t *toyLetter) run(c *Adaptive, minutes int) [][]bool {
	up := make([]bool, len(t.caps))
	for i := range up {
		up[i] = true
	}
	t.obs = make([]SiteObs, len(t.caps))
	var states [][]bool
	for m := 0; m < minutes; m++ {
		states = append(states, append([]bool(nil), up...))
		copy(up, c.Decide(m, t.observe(m, up)))
	}
	return states
}

func announced(up []bool) int {
	n := 0
	for _, u := range up {
		if u {
			n++
		}
	}
	return n
}

// TestAdaptiveNeverDarkensService: under a flood that overloads every site
// whatever the controller does, it trial-withdraws sites but never its last
// one, in closed loop and against observations that ignore its decisions.
func TestAdaptiveNeverDarkensService(t *testing.T) {
	flood := &toyLetter{
		caps: []float64{1, 1, 1, 1},
		load: func(int) []float64 { return []float64{5, 5, 5, 5} },
	}
	withdrew := false
	for m, up := range flood.run(&Adaptive{}, 600) {
		if announced(up) == 0 {
			t.Fatalf("minute %d: every site withdrawn", m)
		}
		withdrew = withdrew || announced(up) < len(up)
	}
	if !withdrew {
		t.Error("the controller never tried a withdrawal; the check proves nothing")
	}

	hostile := []SiteObs{
		{Announced: true, CapacityQPS: 1, OfferedQPS: 9, ServedQPS: 1},
		{Announced: true, CapacityQPS: 1, OfferedQPS: 9, ServedQPS: 1},
		{Announced: true, CapacityQPS: 1, OfferedQPS: 9, ServedQPS: 1},
	}
	c := &Adaptive{}
	for m := 0; m < 600; m++ {
		if up := c.Decide(m, hostile); announced(up) == 0 {
			t.Fatalf("minute %d: every site withdrawn on open-loop observations", m)
		}
	}
}

// TestAdaptiveRevertsBadTrials: when every site is overloaded (the §2.2
// case 5), withdrawing only piles the flood onto fewer sites and lowers the
// served fraction, so each trial is judged after adaptiveInterval minutes
// and reverted to the full deployment.
func TestAdaptiveRevertsBadTrials(t *testing.T) {
	flood := &toyLetter{
		caps: []float64{1, 1, 1},
		load: func(int) []float64 { return []float64{3, 3, 3} },
	}
	states := flood.run(&Adaptive{}, 200)
	trials := 0
	for m := 1; m < len(states); m++ {
		if announced(states[m]) < 3 && announced(states[m-1]) == 3 {
			trials++
			end := m + adaptiveInterval
			if end >= len(states) {
				break
			}
			if announced(states[end]) != 3 {
				t.Errorf("trial from minute %d not reverted by minute %d: %v", m, end, states[end])
			}
		}
	}
	if trials == 0 {
		t.Error("no trial withdrawal happened")
	}
}

// TestAdaptiveKeepsGoodTrialAndHeals: when the flood lands on two small
// sites and a big one has room (the §2.2 case 3), withdrawing the small
// sites raises the served fraction and the controller keeps it, apart from
// heal probes that fail and back off; once the attack ends, heal probes
// re-announce the small sites one at a time.
func TestAdaptiveKeepsGoodTrialAndHeals(t *testing.T) {
	const attackEnd = 100
	caseThree := &toyLetter{
		caps: []float64{100, 100, 1000},
		load: func(m int) []float64 {
			if m < attackEnd {
				return []float64{300, 300, 50}
			}
			return []float64{50, 50, 50}
		},
	}
	states := caseThree.run(&Adaptive{}, 400)
	shed := 0
	for m := 2 * adaptiveInterval; m < attackEnd; m++ {
		if up := states[m]; !up[0] && !up[1] && up[2] {
			shed++
		}
	}
	if span := attackEnd - 2*adaptiveInterval; shed < span*3/4 {
		t.Errorf("small sites withdrawn in %d of %d attack minutes, want at least 3/4", shed, span)
	}
	if up := states[len(states)-1]; announced(up) != 3 {
		t.Errorf("after the attack: state %v, want every site re-announced", up)
	}
}

// TestAdaptiveDecideAllocs: after its first call Decide allocates nothing,
// through trials, reverts and heals alike.
func TestAdaptiveDecideAllocs(t *testing.T) {
	attack, quiet := []float64{3, 3, 3, 1}, []float64{0.1, 0.1, 0.1, 0.1}
	flood := &toyLetter{
		caps: []float64{1, 1, 1, 5},
		load: func(m int) []float64 {
			if (m/100)%2 == 0 {
				return attack
			}
			return quiet
		},
		obs: make([]SiteObs, 4),
	}
	c := &Adaptive{}
	up := []bool{true, true, true, true}
	minute := 0
	step := func() {
		copy(up, c.Decide(minute, flood.observe(minute, up)))
		minute++
	}
	step()
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Errorf("Decide allocates %v times per minute, want 0", allocs)
	}
}
