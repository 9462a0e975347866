package core

import (
	"strings"
	"testing"

	"github.com/rootevent/anycastddos/internal/anycast"
	"github.com/rootevent/anycastddos/internal/faults"
	"github.com/rootevent/anycastddos/internal/topo"
)

// policyRun simulates rootevent's -small seed-7 scenario with every site
// forced to policy p (the ablation's re-run; no Measure).
func policyRun(t *testing.T, p anycast.Policy, workers int, noReplay bool) *Evaluator {
	t.Helper()
	cfg := DefaultConfig(7)
	cfg.Topology = &topo.Config{Tier1s: 6, Tier2s: 60, Stubs: 800, Seed: 7}
	cfg.VPs = 50
	cfg.ForcePolicy = &p
	ev, err := NewEvaluator(cfg, WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	ev.noSiteReplay = noReplay
	if err := ev.Run(); err != nil {
		t.Fatal(err)
	}
	return ev
}

// TestAdaptivePolicy: under ForcePolicy Adaptive every letter keeps a site
// announced in every minute; before the first event (nothing overloaded)
// the controllers move nothing, so the routing epochs and BGP updates
// equal the all-absorb run's — H-Root's backup included, which starts
// withdrawn; and the run is the same at 1 and 8 workers and without the
// site-pass replay.
func TestAdaptivePolicy(t *testing.T) {
	adaptive := policyRun(t, anycast.Adaptive, 1, false)
	absorb := policyRun(t, anycast.Absorb, 1, false)

	for _, lb := range adaptive.Deployment.SortedLetters() {
		ls := adaptive.letters[lb]
		for m := 0; m < adaptive.Cfg.Minutes; m++ {
			up := false
			for si := range ls.sites {
				up = up || ls.sites[si].get(m).route
			}
			if !up {
				t.Fatalf("letter %c has no site announced at minute %d", lb, m)
			}
		}
	}

	start := adaptive.sched.Events[0].StartMinute
	preEvent := func(ev *Evaluator) (updates, epochs int) {
		for _, u := range ev.Collector.Updates() {
			if u.Minute < start {
				updates++
			}
		}
		for _, ls := range ev.letters {
			for _, ep := range ls.epochs {
				if ep.Start < start {
					epochs++
				}
			}
		}
		return updates, epochs
	}
	au, ae := preEvent(adaptive)
	bu, be := preEvent(absorb)
	if au != bu || ae != be {
		t.Errorf("before minute %d: adaptive %d updates over %d epochs, absorb %d over %d", start, au, ae, bu, be)
	}
	if n := len(adaptive.Collector.Updates()); n <= au {
		t.Errorf("adaptive run made %d updates, none in the events: the controllers never acted", n)
	}

	ref := engineStateOf(adaptive)
	compareEngineStates(t, "adaptive at 8 workers", engineStateOf(policyRun(t, anycast.Adaptive, 8, false)), ref)
	compareEngineStates(t, "adaptive without site replay", engineStateOf(policyRun(t, anycast.Adaptive, 1, true)), ref)
}

// TestAdaptiveSiteReturnsAfterFault: a fault masks the controller's intent
// without becoming it, so a site an outage took down comes back when the
// outage ends, as under the routers (TestSiteOutageWithdrawsRoutes).
func TestAdaptiveSiteReturnsAfterFault(t *testing.T) {
	plan := &faults.Plan{Name: "K0 out", Events: []faults.Event{
		{Kind: faults.SiteOutage, Start: 100, Duration: 200, Letter: 'K', Site: 0, Severity: 1},
	}}
	cfg := tinyConfig(1)
	p := anycast.Adaptive
	cfg.ForcePolicy = &p
	ev, err := NewEvaluator(cfg, WithFaults(plan))
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Run(); err != nil {
		t.Fatal(err)
	}
	s, err := siteRouteSeries(ev, 'K', 0)
	if err != nil {
		t.Fatal(err)
	}
	for b := 10; b < 30; b++ {
		if s.Values[b] != 0 {
			t.Errorf("bin %d: route fraction %v during outage, want 0", b, s.Values[b])
		}
	}
	if s.Values[5] != 1 || s.Values[35] != 1 {
		t.Errorf("route fraction before/after outage = %v, %v; want 1, 1", s.Values[5], s.Values[35])
	}
}

// TestNewEvaluatorPolicyOptions: a checkpoint has no field for an adaptive
// controller's trial state, so NewEvaluator refuses to checkpoint an
// adaptive run, naming both; either alone is accepted.
func TestNewEvaluatorPolicyOptions(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name    string
		policy  anycast.Policy
		opts    []Option
		wantErr bool
	}{
		{"adaptive", anycast.Adaptive, nil, false},
		{"checkpointed absorb", anycast.Absorb, []Option{WithCheckpoint(dir, 10)}, false},
		{"checkpointed adaptive", anycast.Adaptive, []Option{WithCheckpoint(dir, 10)}, true},
	} {
		cfg := tinyConfig(1)
		cfg.ForcePolicy = &tc.policy
		_, err := NewEvaluator(cfg, tc.opts...)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: err = %v, want error %v", tc.name, err, tc.wantErr)
		}
		if err != nil && !(strings.Contains(err.Error(), "WithCheckpoint") && strings.Contains(err.Error(), "adaptive")) {
			t.Errorf("%s: error %q does not name WithCheckpoint and adaptive", tc.name, err)
		}
	}
}
