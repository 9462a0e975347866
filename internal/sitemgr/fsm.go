// Package sitemgr is the self-healing anycast site manager: it runs one
// letter's sites as real UDP/TCP DNS servers on loopback, assesses each
// site's health every tick from two independent signals — an active CHAOS
// probe and the server's own view (counter deltas, and whether any worker
// still reads its socket) — and drives announce/withdraw
// decisions through a simulated BGP fabric, with flap damping, graceful
// TCP drain on withdraw, a minimum-announced safety floor, and a
// crash-safe decision journal so a killed manager resumes with its damping
// history intact. Every site lives in the manager's process, so a process
// crash is the journal's case; the manager restarts nothing itself.
//
// The paper's event showed both halves of this loop going wrong at human
// timescales: operators withdrew overwhelmed sites hours into the attack,
// and some sites flapped as they were re-announced into still-hostile
// load. The manager encodes the mitigations as mechanism: corroboration
// (probe evidence alone never withdraws a site — the HealthProbeLoss
// fault exists precisely to punish managers that trust one signal),
// damping (each withdraw charges a decaying penalty that suppresses
// re-announce while high), and a floor (the last announced sites absorb
// rather than withdraw, because "no service anywhere" is strictly worse
// than "degraded service somewhere", §5).
package sitemgr

import "fmt"

// State is a site's position in the health state machine.
type State uint8

const (
	// Healthy: announced, serving, no adverse evidence.
	Healthy State = iota
	// Stressed: announced, but at least one health signal is bad. The
	// site keeps serving; the FSM is accumulating evidence.
	Stressed
	// Draining: the route is withdrawn and the TCP side is gracefully
	// shedding connections while residual catchment traffic dries up.
	Draining
	// Withdrawn: out of rotation, watched by probes only, waiting for
	// the flap-damping penalty to decay and health to return.
	Withdrawn
	// Probation: re-announced, but one bad tick sends it straight back
	// to Draining (and doubles down on the damping penalty).
	Probation

	numStates
)

// String returns the state's name.
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Stressed:
		return "stressed"
	case Draining:
		return "draining"
	case Withdrawn:
		return "withdrawn"
	case Probation:
		return "probation"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Announced reports whether a site in this state holds an announced route.
func (s State) Announced() bool {
	return s == Healthy || s == Stressed || s == Probation
}

// Action is what the FSM asks the manager to do after a tick.
type Action uint8

const (
	// ActNone: no routing change this tick.
	ActNone Action = iota
	// ActWithdraw: withdraw the site's route and start the TCP drain.
	// The manager may veto it (minimum-announced floor) by calling
	// Absorb, pinning the site in Stressed instead.
	ActWithdraw
	// ActAnnounce: re-announce the site and stop the drain.
	ActAnnounce
)

// String returns the action's name.
func (a Action) String() string {
	switch a {
	case ActNone:
		return "none"
	case ActWithdraw:
		return "withdraw"
	case ActAnnounce:
		return "announce"
	default:
		return fmt.Sprintf("Action(%d)", uint8(a))
	}
}

// Signals is one assessment window's evidence for one site, in two
// independent families: ProbeOK comes from an active CHAOS probe over a
// real socket; the rest is the server's own view of the window.
type Signals struct {
	ProbeOK bool
	// LossRate, RRLRate, and Backlog are the window's server-side
	// signals (dnsserver.Stats delta helpers).
	LossRate float64
	RRLRate  float64
	Backlog  uint64
	// Stopped is server-side too: no worker is reading the socket
	// (dnsserver.Server.Reading), so the counters above stay at zero
	// however much arrives.
	Stopped bool
}

// The server-signal thresholds (crossing any marks the server-side family
// bad) and the flap-damping constants: every withdraw charges
// penaltyPerFlap, and re-announce is blocked while the penalty exceeds
// suppressThreshold, so one withdraw damps briefly and two in quick
// succession damp for several half-lives.
const (
	maxLossRate       = 0.25
	maxRRLRate        = 0.5
	maxBacklog        = 4096
	penaltyPerFlap    = 1000.0
	suppressThreshold = 1500.0
)

// Config tunes the FSM. The zero value is usable: every field defaults to
// the values documented on it. All durations are in ticks — the FSM never
// reads a clock, so a test driving TickOnce and a manager driving a real
// ticker run the identical machine.
type Config struct {
	// StressTicks is how many consecutive ticks with any bad signal move
	// Healthy to Stressed (default 2).
	StressTicks int
	// FailTicks is how many consecutive corroborated-bad ticks (both
	// signal families bad) move Stressed to Draining (default 3).
	FailTicks int
	// RecoverTicks is how many consecutive clean ticks move Stressed
	// back to Healthy (default 3).
	RecoverTicks int
	// DrainTicks is how long a site sits in Draining before it is marked
	// Withdrawn (default 2).
	DrainTicks int
	// ReprobeTicks is how many consecutive good probe ticks a Withdrawn
	// site needs (on top of a decayed penalty) to enter Probation
	// (default 3).
	ReprobeTicks int
	// ProbationTicks is how many consecutive clean ticks graduate
	// Probation to Healthy (default 5).
	ProbationTicks int
	// PenaltyHalfLife is the decay half-life of the penalty, in ticks
	// (default 30).
	PenaltyHalfLife int
}

func (c *Config) setDefaults() {
	if c.StressTicks <= 0 {
		c.StressTicks = 2
	}
	if c.FailTicks <= 0 {
		c.FailTicks = 3
	}
	if c.RecoverTicks <= 0 {
		c.RecoverTicks = 3
	}
	if c.DrainTicks <= 0 {
		c.DrainTicks = 2
	}
	if c.ReprobeTicks <= 0 {
		c.ReprobeTicks = 3
	}
	if c.ProbationTicks <= 0 {
		c.ProbationTicks = 5
	}
	if c.PenaltyHalfLife <= 0 {
		c.PenaltyHalfLife = 30
	}
}

// FSM is one site's health state machine. It is pure data driven by Tick:
// no clocks, no randomness, no I/O — the same signal sequence always
// yields the same decision sequence, which is what makes the manager's
// journal replayable and its tests byte-identical across reruns.
type FSM struct {
	cfg     Config
	state   State
	penalty float64
	decay   float64 // per-tick penalty multiplier, 2^(-1/halfLife)

	badStreak   int // consecutive any-bad ticks (Healthy)
	failStreak  int // consecutive corroborated-bad ticks (Stressed)
	cleanStreak int // consecutive clean ticks (Stressed, Probation)
	drainTicks  int // ticks spent in Draining
	probeStreak int // consecutive good-probe ticks (Withdrawn)
}

// NewFSM returns a Healthy machine with the given tuning.
func NewFSM(cfg Config) *FSM {
	cfg.setDefaults()
	return &FSM{cfg: cfg, decay: halfLifeDecay(cfg.PenaltyHalfLife)}
}

// halfLifeDecay computes the per-tick multiplier that halves a value
// every halfLife ticks, without math.Pow: square-and-multiply on the
// exact binary expansion would be overkill, so use the identity
// 2^(-1/h) = exp(-ln2/h) via a short fixed iteration. Determinism only
// needs the same bits on every run, which any fixed computation gives.
func halfLifeDecay(halfLife int) float64 {
	// exp(x) by 16 Taylor terms at x = -ln2/halfLife; |x| <= ln2 so the
	// series converges fast and identically on every IEEE-754 platform.
	const ln2 = 0.6931471805599453
	x := -ln2 / float64(halfLife)
	term, sum := 1.0, 1.0
	for i := 1; i <= 16; i++ {
		term *= x / float64(i)
		sum += term
	}
	return sum
}

// State returns the current state.
func (f *FSM) State() State { return f.state }

// Penalty returns the current flap-damping penalty.
func (f *FSM) Penalty() float64 { return f.penalty }

// Restore rewinds the machine to a journaled position: state and penalty
// as recorded, streak counters cleared (the next ticks re-accumulate
// evidence, which only delays decisions, never corrupts them).
func (f *FSM) Restore(state State, penalty float64) {
	f.state = state
	f.penalty = penalty
	f.badStreak, f.failStreak, f.cleanStreak, f.drainTicks, f.probeStreak = 0, 0, 0, 0, 0
}

// Absorb is the manager's veto of an ActWithdraw: the minimum-announced
// floor held, so the site must stay in service and absorb the load. The
// machine returns to Stressed with its evidence counters cleared; the
// withdraw's penalty charge is rolled back since no flap happened.
func (f *FSM) Absorb() {
	f.state = Stressed
	f.penalty -= penaltyPerFlap
	if f.penalty < 0 {
		f.penalty = 0
	}
	f.badStreak, f.failStreak, f.cleanStreak, f.drainTicks = 0, 0, 0, 0
}

// Tick advances the machine one assessment window and returns the action
// the manager should apply.
func (f *FSM) Tick(sig Signals) Action {
	f.penalty *= f.decay
	if f.penalty < 1e-6 {
		f.penalty = 0
	}

	probeBad := !sig.ProbeOK
	serverBad := sig.Stopped ||
		sig.LossRate > maxLossRate ||
		sig.RRLRate > maxRRLRate ||
		sig.Backlog > maxBacklog
	anyBad := probeBad || serverBad
	bothBad := probeBad && serverBad

	switch f.state {
	case Healthy:
		if anyBad {
			f.badStreak++
			if f.badStreak >= f.cfg.StressTicks {
				f.toState(Stressed)
			}
		} else {
			f.badStreak = 0
		}

	case Stressed:
		switch {
		case bothBad:
			f.failStreak++
			f.cleanStreak = 0
			if f.failStreak >= f.cfg.FailTicks {
				return f.withdraw()
			}
		case anyBad:
			// One family bad, the other fine: hold. A probe-loss fault
			// parks a healthy site here forever rather than flapping it.
			f.failStreak = 0
			f.cleanStreak = 0
		default:
			f.failStreak = 0
			f.cleanStreak++
			if f.cleanStreak >= f.cfg.RecoverTicks {
				f.toState(Healthy)
			}
		}

	case Draining:
		f.drainTicks++
		if f.drainTicks >= f.cfg.DrainTicks {
			f.toState(Withdrawn)
		}

	case Withdrawn:
		// Probe-only evidence: a withdrawn site sees no real traffic, so
		// the server-side family is vacuous here.
		if sig.ProbeOK {
			f.probeStreak++
		} else {
			f.probeStreak = 0
		}
		if f.probeStreak >= f.cfg.ReprobeTicks && f.penalty <= suppressThreshold {
			f.toState(Probation)
			return ActAnnounce
		}

	case Probation:
		if anyBad {
			// A flap: straight back out, and the fresh penalty stacks on
			// the remains of the previous one, lengthening suppression.
			return f.withdraw()
		}
		f.cleanStreak++
		if f.cleanStreak >= f.cfg.ProbationTicks {
			f.toState(Healthy)
		}
	}
	return ActNone
}

// withdraw moves to Draining and charges the flap penalty.
func (f *FSM) withdraw() Action {
	f.toState(Draining)
	f.penalty += penaltyPerFlap
	return ActWithdraw
}

// toState switches state and clears every streak counter.
func (f *FSM) toState(s State) {
	f.state = s
	f.badStreak, f.failStreak, f.cleanStreak, f.drainTicks, f.probeStreak = 0, 0, 0, 0, 0
}
