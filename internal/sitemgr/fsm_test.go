package sitemgr

import (
	"encoding/json"
	"fmt"
	"testing"
)

// sigOK / sigProbeBad / sigServerBad / sigBothBad are the four evidence
// shapes the machine distinguishes.
var (
	sigOK        = Signals{ProbeOK: true}
	sigProbeBad  = Signals{ProbeOK: false}
	sigServerBad = Signals{ProbeOK: true, LossRate: 0.9}
	sigBothBad   = Signals{ProbeOK: false, RRLRate: 0.9}
)

// trace runs a fresh FSM over a signal script and records every tick's
// (state, action, penalty) as one JSON line — the byte-stable decision
// trace the determinism test compares.
func trace(cfg Config, script []Signals) string {
	f := NewFSM(cfg)
	out := ""
	for i, sig := range script {
		act := f.Tick(sig)
		out += fmt.Sprintf(`{"tick":%d,"state":%q,"action":%q,"penalty":%.6f}`+"\n",
			i, f.State(), act, f.Penalty())
	}
	return out
}

func TestFSMWithdrawRequiresCorroboration(t *testing.T) {
	// Probe evidence alone — the HealthProbeLoss failure mode — must
	// never withdraw: the site parks in Stressed.
	f := NewFSM(Config{})
	for i := 0; i < 100; i++ {
		if act := f.Tick(sigProbeBad); act != ActNone {
			t.Fatalf("tick %d: probe-only evidence produced %v", i, act)
		}
	}
	if f.State() != Stressed {
		t.Fatalf("probe-only evidence: state %v, want stressed", f.State())
	}
	// Server evidence alone holds too (a loss fault on the data path
	// with probes still answering).
	f = NewFSM(Config{})
	for i := 0; i < 100; i++ {
		if act := f.Tick(sigServerBad); act != ActNone {
			t.Fatalf("tick %d: server-only evidence produced %v", i, act)
		}
	}
	if f.State() != Stressed {
		t.Fatalf("server-only evidence: state %v, want stressed", f.State())
	}
	// A server that stopped reading is server-family evidence: alone it
	// holds, with a failing probe it withdraws.
	f = NewFSM(Config{})
	for i := 0; i < 100; i++ {
		if act := f.Tick(Signals{ProbeOK: true, Stopped: true}); act != ActNone {
			t.Fatalf("tick %d: stopped-server evidence alone produced %v", i, act)
		}
	}
	f = NewFSM(Config{StressTicks: 1, FailTicks: 1})
	if f.Tick(Signals{Stopped: true}); f.Tick(Signals{Stopped: true}) != ActWithdraw {
		t.Fatalf("failing probe + stopped server did not withdraw: state %v", f.State())
	}
	// Corroborated evidence withdraws after StressTicks + FailTicks.
	f = NewFSM(Config{StressTicks: 2, FailTicks: 3})
	var got Action
	ticks := 0
	for got != ActWithdraw && ticks < 20 {
		got = f.Tick(sigBothBad)
		ticks++
	}
	if got != ActWithdraw || ticks != 5 {
		t.Fatalf("corroborated evidence: %v after %d ticks, want withdraw after 5", got, ticks)
	}
	if f.State() != Draining {
		t.Fatalf("state after withdraw: %v", f.State())
	}
}

func TestFSMFullLifecycle(t *testing.T) {
	cfg := Config{
		StressTicks: 1, FailTicks: 2, RecoverTicks: 2, DrainTicks: 2,
		ReprobeTicks: 2, ProbationTicks: 2, PenaltyHalfLife: 2,
	}
	f := NewFSM(cfg)
	step := func(sig Signals, wantState State, wantAct Action) {
		t.Helper()
		act := f.Tick(sig)
		if f.State() != wantState || act != wantAct {
			t.Fatalf("got (%v, %v), want (%v, %v)", f.State(), act, wantState, wantAct)
		}
	}
	step(sigBothBad, Stressed, ActNone) // StressTicks=1
	step(sigBothBad, Stressed, ActNone) // failStreak 1
	step(sigBothBad, Draining, ActWithdraw)
	step(sigOK, Draining, ActNone)  // drainTicks 1
	step(sigOK, Withdrawn, ActNone) // drain complete
	// Penalty (1000 at withdraw, half-life 2) decays below the 1500
	// suppression threshold immediately; two clean probe ticks re-announce.
	step(sigOK, Withdrawn, ActNone) // probeStreak 1
	step(sigOK, Probation, ActAnnounce)
	step(sigOK, Probation, ActNone)
	step(sigOK, Healthy, ActNone)
}

func TestFSMProbationFlapStacksPenalty(t *testing.T) {
	cfg := Config{
		StressTicks: 1, FailTicks: 1, DrainTicks: 1,
		ReprobeTicks: 1, PenaltyHalfLife: 100, // slow decay: flaps stack
	}
	f := NewFSM(cfg)
	f.Tick(sigBothBad)                     // Healthy -> Stressed
	if f.Tick(sigBothBad) != ActWithdraw { // Stressed -> Draining
		t.Fatal("first withdraw missing")
	}
	p1 := f.Penalty()
	f.Tick(sigOK) // Draining -> Withdrawn
	if f.Tick(sigOK) != ActAnnounce {
		t.Fatal("re-announce missing")
	}
	// Flap in probation: immediate withdraw, penalty stacks above the
	// 1500 suppression threshold.
	if f.Tick(sigBothBad) != ActWithdraw {
		t.Fatal("probation flap did not withdraw")
	}
	if f.Penalty() <= p1 {
		t.Fatalf("penalty did not stack: %v then %v", p1, f.Penalty())
	}
	f.Tick(sigOK) // -> Withdrawn
	// Suppressed: clean probes alone must not re-announce while the
	// stacked penalty exceeds the threshold.
	for i := 0; i < 20; i++ {
		if act := f.Tick(sigOK); act == ActAnnounce {
			if f.Penalty() > 1500 {
				t.Fatalf("re-announced at tick %d with penalty %v > threshold", i, f.Penalty())
			}
			return
		}
	}
	// With half-life 100, 20 ticks decay ~2041 -> ~1777: still suppressed.
	if f.State() != Withdrawn {
		t.Fatalf("state %v, want withdrawn under suppression", f.State())
	}
}

func TestFSMAbsorbRollsBack(t *testing.T) {
	f := NewFSM(Config{StressTicks: 1, FailTicks: 1})
	f.Tick(sigBothBad)
	if f.Tick(sigBothBad) != ActWithdraw {
		t.Fatal("no withdraw")
	}
	f.Absorb()
	if f.State() != Stressed {
		t.Fatalf("state after absorb: %v", f.State())
	}
	if f.Penalty() != 0 {
		t.Fatalf("penalty after absorb: %v, want the flap charge rolled back", f.Penalty())
	}
}

func TestFSMDeterministicTrace(t *testing.T) {
	cfg := Config{
		StressTicks: 1, FailTicks: 2, RecoverTicks: 2, DrainTicks: 1,
		ReprobeTicks: 2, ProbationTicks: 3, PenaltyHalfLife: 5,
	}
	// A script that walks every state: stress, withdraw, recover,
	// flap, suppress, recover again.
	var script []Signals
	add := func(sig Signals, n int) {
		for i := 0; i < n; i++ {
			script = append(script, sig)
		}
	}
	add(sigOK, 3)
	add(sigBothBad, 5)
	add(sigOK, 10)
	add(sigBothBad, 4)
	add(sigProbeBad, 5)
	add(sigOK, 40)
	add(sigBothBad, 2)
	add(sigOK, 30)

	first := trace(cfg, script)
	for i := 0; i < 3; i++ {
		if again := trace(cfg, script); again != first {
			t.Fatalf("rerun %d: trace diverged\n--- first ---\n%s--- rerun ---\n%s", i, first, again)
		}
	}
	// The trace is valid JSON lines mentioning every state.
	seen := map[string]bool{}
	for _, line := range splitLines(first) {
		var rec struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		seen[rec.State] = true
	}
	for s := State(0); s < numStates; s++ {
		if !seen[s.String()] {
			t.Errorf("trace never visited %v", s)
		}
	}
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

func TestStateAndActionStrings(t *testing.T) {
	if Healthy.String() != "healthy" || Probation.String() != "probation" {
		t.Fatal("state names")
	}
	if State(200).String() != "State(200)" || Action(9).String() != "Action(9)" {
		t.Fatal("fallback names")
	}
	if !Probation.Announced() || Withdrawn.Announced() || Draining.Announced() {
		t.Fatal("Announced classification")
	}
	if stateByName("draining") != Draining || stateByName("bogus") != Withdrawn {
		t.Fatal("stateByName")
	}
}

// TestFSMSafetyExhaustive walks every sequence of the four evidence shapes
// to a fixed depth, copying the machine at each node, and checks the
// safety rules on every tick:
//   - a withdraw from Healthy or Stressed comes only after FailTicks
//     consecutive both-bad ticks, so one evidence family never withdraws;
//   - a withdraw from Probation comes only on a tick with a bad family;
//   - an announce comes only from Withdrawn, after ReprobeTicks probe-OK
//     ticks, with the penalty at or below the suppression threshold;
//   - nothing else withdraws or announces, and the penalty is never
//     negative.
//
// Walks start from a fresh machine and, shallower, from every state a
// journal resume can restore, at several penalties, so Probation and the
// suppression threshold are reached under the default tick counts too.
func TestFSMSafetyExhaustive(t *testing.T) {
	shapes := []struct {
		name string
		sig  Signals
	}{{"ok", sigOK}, {"probe-bad", sigProbeBad}, {"server-bad", sigServerBad}, {"both-bad", sigBothBad}}

	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"fast", fastFSM()}, {"default", Config{}}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := NewFSM(tc.cfg).cfg
			var path []string
			seen := map[[2]State]int{} // (from, to) of every withdraw and announce
			// bothRun and probeRun count the both-bad and probe-OK ticks
			// that end the current path.
			var walk func(f FSM, depth, bothRun, probeRun int)
			walk = func(f FSM, depth, bothRun, probeRun int) {
				if depth == 0 {
					return
				}
				for _, sh := range shapes {
					g := f
					act := g.Tick(sh.sig)
					path = append(path, sh.name)
					both, probe := 0, 0
					if sh.sig == sigBothBad {
						both = bothRun + 1
					}
					if sh.sig.ProbeOK {
						probe = probeRun + 1
					}
					fail := func(rule string) {
						t.Helper()
						t.Fatalf("%s: %v -> %v (%v, penalty %.1f) after %v", rule, f.State(), g.State(), act, g.Penalty(), path)
					}
					switch {
					case g.Penalty() < 0:
						fail("negative penalty")
					case act == ActWithdraw && (f.State() == Healthy || f.State() == Stressed) && both < cfg.FailTicks:
						fail("withdraw without FailTicks of corroborated evidence")
					case act == ActWithdraw && f.State() == Probation && sh.sig == sigOK:
						fail("probation withdraw on a clean tick")
					case act == ActWithdraw && !f.State().Announced():
						fail("withdraw of an unannounced site")
					case act == ActAnnounce && f.State() != Withdrawn:
						fail("announce from outside Withdrawn")
					case act == ActAnnounce && probe < cfg.ReprobeTicks:
						fail("announce without ReprobeTicks of good probes")
					case act == ActAnnounce && g.Penalty() > suppressThreshold:
						fail("announce while suppressed")
					}
					if act != ActNone {
						seen[[2]State{f.State(), g.State()}]++
					}
					walk(g, depth-1, both, probe)
					path = path[:len(path)-1]
				}
			}
			walk(*NewFSM(tc.cfg), 10, 0, 0)
			for s := State(0); s < numStates; s++ {
				for _, p := range []float64{0, penaltyPerFlap, 2 * penaltyPerFlap} {
					f := NewFSM(tc.cfg)
					f.Restore(s, p)
					path = []string{fmt.Sprintf("restore(%v, %.0f)", s, p)}
					walk(*f, 8, 0, 0)
				}
			}
			// The walk is not vacuous: every decision edge was taken.
			for _, e := range [][2]State{{Stressed, Draining}, {Probation, Draining}, {Withdrawn, Probation}} {
				if seen[e] == 0 {
					t.Errorf("walk never took %v -> %v", e[0], e[1])
				}
			}
		})
	}
}
