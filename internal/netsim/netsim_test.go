package netsim

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"github.com/rootevent/anycastddos/internal/anycast"
)

func mustEval(t *testing.T, capacityQPS float64, load Load, cfg Config) State {
	t.Helper()
	st, err := Evaluate(capacityQPS, load, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestEvaluateUnderCapacity(t *testing.T) {
	st := mustEval(t, 100_000, Load{LegitQPS: 40_000, AttackQPS: 0}, DefaultConfig())
	if st.LossFrac != 0 || st.ServedQPS != 40_000 || st.ExtraDelayMs != 0 {
		t.Errorf("state = %+v", st)
	}
	if math.Abs(st.Utilization-0.4) > 1e-9 {
		t.Errorf("utilization = %v", st.Utilization)
	}
}

func TestEvaluateNearSaturationBuildsQueue(t *testing.T) {
	cfg := DefaultConfig()
	st := mustEval(t, 100_000, Load{LegitQPS: 98_000}, cfg)
	if st.LossFrac != 0 {
		t.Errorf("loss = %v, want 0 below capacity", st.LossFrac)
	}
	if st.ExtraDelayMs <= 0 {
		t.Error("no queueing delay at 98% utilization")
	}
	lower := mustEval(t, 100_000, Load{LegitQPS: 50_000}, cfg)
	if lower.ExtraDelayMs != 0 {
		t.Error("delay at 50% utilization")
	}
}

func TestEvaluateOverload(t *testing.T) {
	cfg := DefaultConfig()
	// K-AMS-like: 1.2 Mq/s capacity, ~2.8 Mq/s offered.
	st := mustEval(t, 1_200_000, Load{LegitQPS: 15_000, AttackQPS: 2_785_000}, cfg)
	if st.ServedQPS != 1_200_000 {
		t.Errorf("served = %v", st.ServedQPS)
	}
	wantLoss := 1 - 1_200_000/2_800_000.0
	if math.Abs(st.LossFrac-wantLoss) > 1e-9 {
		t.Errorf("loss = %v, want %v", st.LossFrac, wantLoss)
	}
	// RTT inflation should land in the ~1-2 s band of Figure 7.
	if st.ExtraDelayMs < 800 || st.ExtraDelayMs > cfg.MaxBufferDelayMs {
		t.Errorf("extra delay = %v ms, want in [800, %v]", st.ExtraDelayMs, cfg.MaxBufferDelayMs)
	}
}

func TestEvaluateExtremOverloadCapsDelay(t *testing.T) {
	cfg := DefaultConfig()
	st := mustEval(t, 30_000, Load{AttackQPS: 5_000_000}, cfg)
	if st.ExtraDelayMs != cfg.MaxBufferDelayMs {
		t.Errorf("delay = %v, want cap %v", st.ExtraDelayMs, cfg.MaxBufferDelayMs)
	}
	if st.LossFrac < 0.99 {
		t.Errorf("loss = %v, want > 0.99", st.LossFrac)
	}
}

func TestEvaluateErrorsOnBadCapacity(t *testing.T) {
	for _, capacity := range []float64{0, -1} {
		if _, err := Evaluate(capacity, Load{}, DefaultConfig()); !errors.Is(err, ErrBadCapacity) {
			t.Errorf("capacity %v: want ErrBadCapacity, got %v", capacity, err)
		}
	}
}

// Property: conservation — served + dropped = offered, and loss within [0,1).
func TestEvaluateConservation(t *testing.T) {
	cfg := DefaultConfig()
	f := func(capRaw, legitRaw, attackRaw uint32) bool {
		capacity := float64(capRaw%10_000_000) + 1
		load := Load{LegitQPS: float64(legitRaw % 10_000_000), AttackQPS: float64(attackRaw % 100_000_000)}
		st, err := Evaluate(capacity, load, cfg)
		if err != nil {
			return false
		}
		dropped := st.OfferedQPS * st.LossFrac
		if st.LossFrac < 0 || st.LossFrac >= 1 {
			return false
		}
		if st.ExtraDelayMs < 0 || st.ExtraDelayMs > cfg.MaxBufferDelayMs {
			return false
		}
		return math.Abs(st.ServedQPS+dropped-st.OfferedQPS) < 1e-6*math.Max(1, st.OfferedQPS)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: loss and delay are monotone non-decreasing in attack rate.
func TestEvaluateMonotone(t *testing.T) {
	cfg := DefaultConfig()
	f := func(a, b uint32) bool {
		x, y := float64(a%50_000_000), float64(b%50_000_000)
		if x > y {
			x, y = y, x
		}
		s1, err1 := Evaluate(100_000, Load{AttackQPS: x}, cfg)
		s2, err2 := Evaluate(100_000, Load{AttackQPS: y}, cfg)
		if err1 != nil || err2 != nil {
			return false
		}
		return s1.LossFrac <= s2.LossFrac+1e-12 && s1.ExtraDelayMs <= s2.ExtraDelayMs+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func sharedSite(servers int, hot int) *anycast.Site {
	return &anycast.Site{Letter: 'K', Code: "NRT", NumServers: servers, ServerMode: anycast.ServersShared, HotServer: hot, CapacityQPS: 1}
}

func isolateSite(servers int) *anycast.Site {
	return &anycast.Site{Letter: 'K', Code: "FRA", NumServers: servers, ServerMode: anycast.ServersIsolate, CapacityQPS: 1}
}

func TestServersHealthy(t *testing.T) {
	st := State{LossFrac: 0, ExtraDelayMs: 0}
	v := Servers(isolateSite(3), st, DefaultConfig(), 0)
	for i, r := range v.Responds {
		if !r || v.LossFrac[i] != 0 {
			t.Errorf("healthy server %d = responds %v loss %v", i+1, r, v.LossFrac[i])
		}
	}
	if v.Active != 0 {
		t.Errorf("Active = %d, want 0 when healthy", v.Active)
	}
}

func TestServersIsolateUnderOverload(t *testing.T) {
	st := State{LossFrac: 0.6, ExtraDelayMs: 1200}
	// First event: server 2 stays up (K-FRA-S2, Figure 12 top).
	v1 := Servers(isolateSite(3), st, DefaultConfig(), 1)
	if v1.Active != 2 {
		t.Errorf("event 1 active = %d, want 2", v1.Active)
	}
	if !v1.Responds[1] || v1.Responds[0] || v1.Responds[2] {
		t.Errorf("event 1 responds = %v", v1.Responds)
	}
	// Successful replies keep near-normal RTT (Figure 13 top).
	if v1.ExtraDelayMs[1] > 150 {
		t.Errorf("isolated server delay = %v, want small", v1.ExtraDelayMs[1])
	}
	// Second event: server 3.
	v2 := Servers(isolateSite(3), st, DefaultConfig(), 2)
	if v2.Active != 3 || !v2.Responds[2] {
		t.Errorf("event 2 active = %d responds %v", v2.Active, v2.Responds)
	}
}

func TestServersSharedWithHotServer(t *testing.T) {
	st := State{LossFrac: 0.4, ExtraDelayMs: 900}
	v := Servers(sharedSite(3, 2), st, DefaultConfig(), 1)
	for i := 0; i < 3; i++ {
		if !v.Responds[i] {
			t.Errorf("shared server %d not responding", i+1)
		}
	}
	if v.LossFrac[1] <= v.LossFrac[0] {
		t.Errorf("hot server loss %v not above others %v", v.LossFrac[1], v.LossFrac[0])
	}
	if v.ExtraDelayMs[1] <= v.ExtraDelayMs[0] {
		t.Errorf("hot server delay %v not above others %v", v.ExtraDelayMs[1], v.ExtraDelayMs[0])
	}
}

func TestRouterAbsorbNeverWithdraws(t *testing.T) {
	r := NewRouter(anycast.Absorb, 3, 5, 60)
	for m := 0; m < 100; m++ {
		if r.Step(m, 50) {
			t.Fatal("absorb router changed state")
		}
	}
	if !r.Announced() {
		t.Error("absorb router withdrew")
	}
}

func TestRouterWithdrawAfterHold(t *testing.T) {
	r := NewRouter(anycast.Withdraw, 3, 5, 60)
	for m := 0; m < 4; m++ {
		if r.Step(m, 10) {
			t.Fatalf("withdrew after %d minutes, hold is 5", m+1)
		}
	}
	if !r.Step(4, 10) {
		t.Fatal("did not withdraw after hold reached")
	}
	if r.Announced() {
		t.Fatal("still announced after withdrawal")
	}
	// Stays down through cooldown.
	for m := 5; m < 64; m++ {
		if r.Step(m, 0) {
			t.Fatalf("re-announced at minute %d, cooldown is 60", m)
		}
	}
	if !r.Step(64, 0) {
		t.Fatal("did not re-announce after cooldown")
	}
	if !r.Announced() {
		t.Fatal("not announced after re-announce")
	}
}

func TestRouterOverloadMustBeConsecutive(t *testing.T) {
	r := NewRouter(anycast.Withdraw, 3, 3, 60)
	r.Step(0, 10)
	r.Step(1, 10)
	r.Step(2, 1) // dip below trigger resets the hold counter
	r.Step(3, 10)
	r.Step(4, 10)
	if !r.Announced() {
		t.Fatal("withdrew despite non-consecutive overload")
	}
	if !r.Step(5, 10) {
		t.Fatal("should withdraw on third consecutive overloaded minute")
	}
}

func TestRouterForceOperations(t *testing.T) {
	r := NewRouter(anycast.Withdraw, 3, 5, 60)
	if !r.ForceWithdraw(10) {
		t.Fatal("ForceWithdraw on announced route should change state")
	}
	if r.ForceWithdraw(11) {
		t.Fatal("double ForceWithdraw should be a no-op")
	}
	if !r.ForceAnnounce() {
		t.Fatal("ForceAnnounce should change state")
	}
	if r.ForceAnnounce() {
		t.Fatal("double ForceAnnounce should be a no-op")
	}
}

// TestRouterSkipMatchesSteps holds the span arithmetic to the minute-by-minute
// state machine: for every policy, announced and withdrawn routers, hold
// counters on both sides of the hold edge, withdrawals on both sides of the
// cooldown edge, and utilization under, at and over the trigger, NextChange
// is the first minute Step returns true, and Skip over any L minutes short of
// it leaves the router as L Step calls do.
func TestRouterSkipMatchesSteps(t *testing.T) {
	const trigger, hold, cooldown, from, horizon = 3.0, 5, 12, 40, 100
	type start struct {
		name string
		st   RouterState
	}
	var starts []start
	for _, over := range []int{0, 1, hold - 2, hold - 1, hold, hold + 1} {
		starts = append(starts, start{fmt.Sprintf("announced over=%d", over), RouterState{Announced: true, OverMinutes: over}})
	}
	for _, ago := range []int{0, 1, cooldown - 2, cooldown - 1, cooldown, cooldown + 1, 90} {
		starts = append(starts, start{fmt.Sprintf("withdrawn %d min ago", ago), RouterState{DownSince: from - ago}})
	}
	for _, policy := range []anycast.Policy{anycast.Absorb, anycast.Withdraw, anycast.Adaptive} {
		for _, s := range starts {
			for _, u := range []float64{0, trigger - 0.5, math.Nextafter(trigger, 0), trigger, trigger + 0.5, 50, math.NaN()} {
				name := fmt.Sprintf("%v %s u=%v", policy, s.name, u)
				newRouter := func() *Router {
					r := NewRouter(policy, trigger, hold, cooldown)
					r.Restore(s.st)
					return r
				}
				next := newRouter().NextChange(from, u)
				stepped := newRouter()
				first := math.MaxInt
				for m := from; m < from+horizon; m++ {
					changed := stepped.Step(m, u)
					if changed && first == math.MaxInt {
						first = m
					}
					if first == math.MaxInt {
						// Every Step so far kept the announcement: Skip over
						// the same minutes must land on the same state.
						skipped := newRouter()
						skipped.Skip(from, m+1, u)
						if got, want := skipped.State(), stepped.State(); got != want {
							t.Fatalf("%s: Skip(%d, %d) = %+v, %d Step calls from %+v give %+v",
								name, from, m+1, got, m+1-from, s.st, want)
						}
					}
				}
				if next != first {
					t.Errorf("%s: NextChange(%d) = %d, Step first returns true at %d", name, from, next, first)
				}
				skipped := newRouter()
				skipped.Skip(from, from, u)
				if skipped.State() != s.st {
					t.Errorf("%s: an empty Skip moved the router to %+v", name, skipped.State())
				}
			}
		}
	}
}

// TestProbeServerMatchesServers checks the scalar hot-path form against the
// full ServerView for every mode, overload state, and hashed server choice,
// including the caller-side redirect to the isolated server.
func TestProbeServerMatchesServers(t *testing.T) {
	cfg := DefaultConfig()
	sites := []*anycast.Site{
		sharedSite(4, 0),
		sharedSite(4, 2),
		isolateSite(3),
	}
	states := []State{
		{LossFrac: 0, ExtraDelayMs: 0},
		{LossFrac: 0, ExtraDelayMs: 35},
		{LossFrac: 0.4, ExtraDelayMs: 900},
		{LossFrac: 0.8, ExtraDelayMs: 1900},
	}
	for _, site := range sites {
		for _, st := range states {
			for eventIndex := 0; eventIndex <= 2; eventIndex++ {
				view := Servers(site, st, cfg, eventIndex)
				for hashed := 1; hashed <= site.NumServers; hashed++ {
					want := hashed
					if view.Active > 0 {
						want = view.Active
					}
					srv, responds, loss, delay := ProbeServer(site, st, cfg, eventIndex, hashed)
					if srv != want {
						t.Fatalf("%s mode=%v loss=%v ev=%d hashed=%d: server %d, want %d",
							site.Code, site.ServerMode, st.LossFrac, eventIndex, hashed, srv, want)
					}
					if responds != view.Responds[want-1] ||
						loss != view.LossFrac[want-1] ||
						delay != view.ExtraDelayMs[want-1] {
						t.Fatalf("%s mode=%v loss=%v ev=%d hashed=%d: (%v,%v,%v), want (%v,%v,%v)",
							site.Code, site.ServerMode, st.LossFrac, eventIndex, hashed,
							responds, loss, delay,
							view.Responds[want-1], view.LossFrac[want-1], view.ExtraDelayMs[want-1])
					}
				}
			}
		}
	}
}

// TestProbeServerAllocationFree pins the point of the scalar form.
func TestProbeServerAllocationFree(t *testing.T) {
	cfg := DefaultConfig()
	site := sharedSite(4, 2)
	st := State{LossFrac: 0.5, ExtraDelayMs: 800}
	allocs := testing.AllocsPerRun(100, func() {
		_, _, _, _ = ProbeServer(site, st, cfg, 1, 3)
	})
	if allocs != 0 {
		t.Errorf("ProbeServer allocates %.0f objects per call, want 0", allocs)
	}
}
