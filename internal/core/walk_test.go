package core

import (
	"bytes"
	"context"
	"math"
	"testing"

	"github.com/rootevent/anycastddos/internal/atlas"
	"github.com/rootevent/anycastddos/internal/atlas/atlastest"
	"github.com/rootevent/anycastddos/internal/attack"
	"github.com/rootevent/anycastddos/internal/faults"
	"github.com/rootevent/anycastddos/internal/netsim"
)

// referenceProbeOutcome is the per-probe model as it stood before the walk
// kernel — every lookup made afresh for the probe, churn membership through
// faults.Compiled.VPDown — kept here, and only here, as the oracle the kernel
// is checked against.
func referenceProbeOutcome(ev *Evaluator, vp *atlas.VP, letter byte, minute int) atlas.Outcome {
	coin := func(salt uint64) float64 {
		key := uint64(ev.Cfg.Seed)*0x9E3779B97F4A7C15 ^
			uint64(vp.ID)<<40 ^ uint64(letter)<<32 ^ uint64(uint32(minute)) ^ salt<<56
		return float64(mix64(key)>>11) / float64(1<<53)
	}
	if minute < 0 {
		return atlas.Outcome{Status: atlas.Timeout}
	}
	if minute >= ev.Cfg.Minutes {
		minute = ev.Cfg.Minutes - 1
	}
	if ev.flt != nil && ev.flt.VPDown(int32(vp.ID), minute) {
		return atlas.Outcome{Status: atlas.NoData}
	}
	if vp.Hijacked {
		return atlas.Outcome{Status: atlas.OK, Site: 0, RTTms: 2 + 3*coin(1), ChaosTXT: "dnsmasq-2.76"}
	}
	ls := ev.letterTab[letter]
	if ls == nil {
		return atlas.Outcome{Status: atlas.Timeout}
	}
	ep := ls.epochAt(minute)
	if ep == nil {
		return atlas.Outcome{Status: atlas.Timeout}
	}
	site := ep.Table.SiteOf(vp.ASN)
	if site < 0 {
		return atlas.Outcome{Status: atlas.Timeout}
	}
	s := ls.letter.Sites[site]
	state := ls.sites[site].get(minute)
	if !state.route {
		return atlas.Outcome{Status: atlas.Timeout}
	}
	loss := state.lossFrac()
	delay := state.delayMs()
	if !ls.targeted {
		if ci := ls.siteCity[site]; ci >= 0 {
			cl := collateralLoss(ev.excessAt(ci, minute), collateralFullQPS)
			if cl > 0.45 {
				cl = 0.45
			}
			loss = 1 - (1-loss)*(1-cl)
		}
	}
	st := netsim.State{LossFrac: loss, ExtraDelayMs: delay}
	evIdx := int(ev.evActive[minute])
	server := 1 + int(mix64(uint64(vp.ID)<<20^uint64(uint32(minute/4))^uint64(letter))%uint64(s.NumServers))
	server, responds, srvLoss, srvDelay := netsim.ProbeServer(s, st, ev.Cfg.Netsim, evIdx+1, server)
	if !responds {
		return atlas.Outcome{Status: atlas.Timeout}
	}
	if coin(2) < srvLoss {
		return atlas.Outcome{Status: atlas.Timeout}
	}
	base := ev.cityRTTIdx(ev.vpCity[vp.ID], ls.siteCity[site])
	rtt := (base + srvDelay) * (0.92 + 0.16*coin(3))
	return atlas.Outcome{Status: atlas.OK, Site: site, Server: server, RTTms: rtt, ChaosTXT: ls.txt[site][server]}
}

// walkCoverage counts what the walks checked by checkWalk met, so the test
// can insist that the cases it exists for really occurred.
type walkCoverage struct {
	probes, ok, timeout, noData, bogus int
	// rerouted counts walks that crossed at least two routing epochs and
	// were served by at least two sites; withdrawn those among them whose
	// first site had lost its route by the time the walk left it.
	rerouted, withdrawn int
	// siteCut, cityCut and churnCut count consecutive probes a, b where a
	// is lossless and the first change point after a, at or before b, is a
	// step of a's site (its state at b differs), a step of the city excess
	// behind a's collateral loss (the site's state is a's, its effective
	// loss is not) or a churn-window edge (b is NoData): the span edges a
	// kernel that missed them would answer b wrong at. lossy counts probes
	// whose site holds a route and loses queries, faultLossy those among
	// them whose site is inside a CapacityDegrade or PacketLossBurst window.
	siteCut, cityCut, churnCut, lossy, faultLossy int
}

// spanInputs is what a probe at one minute reads, as the reference model
// derives it, plus the change points after that minute.
type spanInputs struct {
	down, routed bool
	site         int
	state        siteState
	loss         float64 // state's loss with collateral damage composed in
	// The next minute at which the routing epoch, the site's state, its
	// city's excess (when it causes collateral loss) or the vantage point's
	// churn membership change; math.MaxInt for none.
	epochNext, siteNext, cityNext, churnNext int
}

// inputsAt derives a probe's spanInputs at a minute from the engine's state.
func inputsAt(ev *Evaluator, vp *atlas.VP, letter byte, minute int) spanInputs {
	in := spanInputs{site: -1, epochNext: math.MaxInt, siteNext: math.MaxInt, cityNext: math.MaxInt, churnNext: math.MaxInt}
	if ev.flt != nil {
		in.down, in.churnNext = churnAt(ev.flt.AppendVPDownWindows(nil, int32(vp.ID)), minute)
	}
	ls := ev.letterTab[letter]
	if in.down || vp.Hijacked || ls == nil || len(ls.epochs) == 0 {
		return in
	}
	e := ls.epochIndexAt(minute)
	if e+1 < len(ls.epochs) {
		in.epochNext = ls.epochs[e+1].Start
	}
	if in.site = ls.epochs[e].Table.SiteOf(vp.ASN); in.site < 0 {
		return in
	}
	in.state, in.siteNext = ls.sites[in.site].span(minute)
	in.routed, in.loss = in.state.route, in.state.lossFrac()
	if ci := ls.siteCity[in.site]; in.routed && !ls.targeted && ci >= 0 {
		var excess uint64
		excess, in.cityNext = ev.cityExcess[ci].span(minute)
		cl := min(collateralLoss(math.Float64frombits(excess), collateralFullQPS), 0.45)
		in.loss = 1 - (1-in.loss)*(1-cl)
	}
	return in
}

// countSpanEdge records in cov what lies between the probes at minutes a and
// b > a, whose inputs are prev and cur.
func countSpanEdge(cov *walkCoverage, prev, cur spanInputs, b int) {
	if !prev.routed || prev.loss > 0 {
		return
	}
	cut := min(prev.epochNext, prev.siteNext, prev.cityNext, prev.churnNext)
	if cut > b {
		return
	}
	sameSite := !cur.down && cur.site == prev.site
	if cut == prev.siteNext && sameSite && cur.state != prev.state {
		cov.siteCut++
	}
	if cut == prev.cityNext && sameSite && cur.state == prev.state && cur.loss != prev.loss {
		cov.cityCut++
	}
	if cut == prev.churnNext && cur.down {
		cov.churnCut++
	}
}

// checkWalk answers one walk three ways — the kernel over the whole walk,
// ProbeOutcome (the kernel's one-probe case) per minute, and the reference
// model per minute — and requires all three to agree field for field.
func checkWalk(t *testing.T, ev *Evaluator, w *atlas.Walk, vp *atlas.VP, letter byte, first, interval, n int, cov *walkCoverage) {
	t.Helper()
	w.Reset(n)
	ev.ProbeWalk(vp, letter, first, interval, w)
	ls := ev.letterTab[letter]
	firstSite, sites, firstEpoch, lastEpoch := -1, 0, -1, -1
	lostRoute := false
	prevMinute := -1
	var prev spanInputs
	for i := 0; i < n; i++ {
		minute := first + i*interval
		if m := min(minute, ev.Cfg.Minutes-1); m >= 0 && m > prevMinute {
			cur := inputsAt(ev, vp, letter, m)
			if prevMinute >= 0 {
				countSpanEdge(cov, prev, cur, m)
			}
			if cur.routed && !(cur.loss <= 0) {
				cov.lossy++
				if ev.flt != nil && (ev.flt.CapacityFactor(letter, cur.site, m) < 1 || ev.flt.ExtraLossFrac(letter, cur.site, m) > 0) {
					cov.faultLossy++
				}
			}
			prev, prevMinute = cur, m
		}
		got := w.Outcome(i)
		if one := ev.ProbeOutcome(vp, letter, minute); one != got {
			t.Fatalf("vp %d letter %c walk(%d,+%d) probe %d (minute %d): walk %+v, ProbeOutcome %+v", vp.ID, letter, first, interval, i, minute, got, one)
		}
		if want := referenceProbeOutcome(ev, vp, letter, minute); want != got {
			t.Fatalf("vp %d letter %c walk(%d,+%d) probe %d (minute %d): kernel %+v, reference model %+v", vp.ID, letter, first, interval, i, minute, got, want)
		}
		cov.probes++
		switch {
		case got.Status == atlas.NoData:
			cov.noData++
		case got.Status == atlas.Timeout:
			cov.timeout++
		case got.ChaosTXT == hijackIdentity[0]:
			cov.bogus++
		default:
			cov.ok++
		}
		if ls == nil || vp.Hijacked || minute < 0 || minute >= ev.Cfg.Minutes || len(ls.epochs) == 0 {
			continue
		}
		e := ls.epochIndexAt(minute)
		if firstEpoch < 0 {
			firstEpoch = e
		}
		lastEpoch = e
		if site := ls.epochs[e].Table.SiteOf(vp.ASN); site >= 0 {
			switch {
			case firstSite < 0:
				firstSite, sites = site, 1
			case site != firstSite && sites == 1:
				sites = 2
				lostRoute = !ls.sites[firstSite].get(minute).route
			}
		}
	}
	if sites == 2 && lastEpoch-firstEpoch >= 2 {
		cov.rerouted++
		if lostRoute {
			cov.withdrawn++
		}
	}
}

// TestWalkIsItsProbes pins the walk kernel to the probes it stands for, on a
// fault-free run, under the random:3:heavy plan, and under that plan with
// capacity-degrade and packet-loss-burst windows on loaded sites of every
// attacked letter inside both events (loadedSitePlan): every vantage point's
// campaign walk of every letter (A at its 30-minute cadence, an unknown
// letter too), plus walks that start before minute 0, run past the horizon,
// and visit every minute. The last plan must move sites' service where its
// windows open and close, and leave lossy probes inside them.
func TestWalkIsItsProbes(t *testing.T) {
	cfg := tinyConfig(5)
	cfg.VPs = 60
	heavy := faults.RandomPlan(3, faults.HeavyProfile())
	loaded := loadedSitePlan(t, cfg, attack.Nov2015Schedule(), heavy)
	for _, tc := range []struct {
		name string
		plan *faults.Plan
	}{
		{"fault-free", nil},
		{"random:3:heavy", heavy},
		{"random:3:heavy+loaded-sites", loaded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ev, err := NewEvaluator(cfg, WithFaults(tc.plan))
			if err != nil {
				t.Fatal(err)
			}
			if err := ev.Run(); err != nil {
				t.Fatal(err)
			}
			// The population must hold the vantage points cleaning exists
			// for; the world answers them like any other.
			vps := ev.Population.VPs
			vps[7].Hijacked = true
			vps[11].Firmware = atlas.MinFirmware - 1
			churned := -1
			if ev.flt != nil {
				for i := range vps {
					if !vps[i].Hijacked && len(ev.flt.AppendVPDownWindows(nil, int32(vps[i].ID))) > 0 {
						churned = i
						break
					}
				}
				if churned < 0 {
					t.Fatal("the heavy plan churns none of the vantage points")
				}
			}

			var w atlas.Walk
			var cov walkCoverage
			letters := append(ev.Deployment.SortedLetters(), 'Z')
			for i := range vps {
				vp := &vps[i]
				for _, letter := range letters {
					interval := 4
					if letter == 'A' {
						interval = 30
					}
					first := vp.Phase % interval
					checkWalk(t, ev, &w, vp, letter, first, interval, (cfg.Minutes-first+interval-1)/interval, &cov)
				}
			}
			for _, i := range []int{0, 7, 11, max(churned, 1)} {
				vp := &vps[i]
				for _, letter := range []byte{'A', 'E', 'K', 'Z'} {
					// Before minute 0 and past the horizon (the clamp).
					checkWalk(t, ev, &w, vp, letter, -9, 4, 12, &cov)
					checkWalk(t, ev, &w, vp, letter, cfg.Minutes-10, 4, 8, &cov)
					// Every minute: each epoch boundary falls inside the walk.
					checkWalk(t, ev, &w, vp, letter, 0, 1, cfg.Minutes, &cov)
				}
			}
			t.Logf("coverage: %+v", cov)
			if cov.ok == 0 || cov.timeout == 0 || cov.bogus == 0 {
				t.Errorf("walks met no success, no timeout or no hijacked reply: %+v", cov)
			}
			if (cov.noData > 0) != (tc.plan != nil) {
				t.Errorf("NoData probes = %d with plan %v", cov.noData, tc.plan != nil)
			}
			if cov.rerouted == 0 || cov.withdrawn == 0 {
				t.Errorf("no walk crossed two routing epochs away from a withdrawn site: %+v", cov)
			}
			if cov.siteCut == 0 || cov.cityCut == 0 || cov.lossy == 0 {
				t.Errorf("walks met no lossless span cut by a site step, none cut by a city step, or no lossy span: %+v", cov)
			}
			if (cov.churnCut > 0) != (tc.plan != nil) {
				t.Errorf("lossless spans cut by a churn edge = %d with plan %v", cov.churnCut, tc.plan != nil)
			}
			if tc.plan == loaded {
				edges := loadedWindowSteps(ev, loaded, len(heavy.Events))
				t.Logf("site steps at loaded-site window edges: %d", edges)
				if edges < 80 || cov.faultLossy < 5000 {
					t.Errorf("loaded-site windows moved %d site steps and left %d lossy probes, want at least 80 and 5000", edges, cov.faultLossy)
				}
			}
		})
	}
}

// loadedWindowSteps counts the site steps of ev's run that fall on a minute
// where one of plan's windows past its first `skip` events opens or closes on
// that site.
func loadedWindowSteps(ev *Evaluator, plan *faults.Plan, skip int) int {
	edges := map[[3]int]bool{}
	for _, e := range plan.Events[skip:] {
		edges[[3]int{int(e.Letter), e.Site, e.Start}] = true
		edges[[3]int{int(e.Letter), e.Site, e.End()}] = true
	}
	n := 0
	for lb, ls := range ev.letters {
		for si := range ls.sites {
			for _, at := range ls.sites[si].at {
				if edges[[3]int{int(lb), si, int(at)}] {
					n++
				}
			}
		}
	}
	return n
}

// TestWalkBeforeRun covers the letter without a routing epoch: nothing but a
// hijacked vantage point's resolver answers, however long the walk.
func TestWalkBeforeRun(t *testing.T) {
	ev, err := NewEvaluator(tinyConfig(13))
	if err != nil {
		t.Fatal(err)
	}
	vps := ev.Population.VPs
	vps[0].Hijacked, vps[1].Hijacked = false, true
	var w atlas.Walk
	var cov walkCoverage
	for i := 0; i < 2; i++ {
		checkWalk(t, ev, &w, &vps[i], 'K', -4, 4, 40, &cov)
	}
	if cov.ok != 0 || cov.noData != 0 || cov.bogus != 39 || cov.timeout != 41 {
		t.Errorf("before Run: %+v, want 39 hijacked replies and 41 timeouts", cov)
	}
}

// TestMeasureWithoutWalkMethod offers the evaluator to the Atlas campaign
// stripped of ProbeWalk, so the campaign probes it a minute at a time: the
// archive must be Measure's, byte for byte, at 1 and 4 workers.
func TestMeasureWithoutWalkMethod(t *testing.T) {
	cfg := tinyConfig(9)
	cfg.VPs = 120
	ev, err := NewEvaluator(cfg, WithFaults(faults.RandomPlan(3, faults.HeavyProfile())))
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Run(); err != nil {
		t.Fatal(err)
	}
	archive := func(d *atlas.Dataset, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := d.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := archive(ev.Measure())
	sc := atlas.DefaultScheduleConfig()
	sc.Minutes, sc.RawLetters = cfg.Minutes, cfg.RawLetters
	for _, workers := range []int{1, 4} {
		sc.Workers = workers
		got := archive(atlas.RunContext(context.Background(), ev.Population, atlastest.PerProbeOnly(ev), sc))
		if !bytes.Equal(got, want) {
			t.Errorf("workers=%d: probing the evaluator a minute at a time gives a different archive than its walks", workers)
		}
	}
}

// TestMeasureAllocations guards what rootbench only shows in its traced
// pass: a campaign allocates its dataset, its shards' walk buffers and
// Seal's tables — a number that does not grow with the population.
func TestMeasureAllocations(t *testing.T) {
	for _, vps := range []int{100, 1000} {
		cfg := tinyConfig(3)
		cfg.VPs, cfg.Minutes = vps, 240
		ev, err := NewEvaluator(cfg, WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		if err := ev.Run(); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := ev.Measure(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d VPs: %v allocations", vps, allocs)
		if allocs > 100 {
			t.Errorf("%d VPs: Measure allocates %v objects, want at most 100", vps, allocs)
		}
	}
}
