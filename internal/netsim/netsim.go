// Package netsim models what happens inside an anycast site when the
// offered query load approaches or exceeds its capacity.
//
// The model is deliberately simple and matches the paper's observations:
//
//   - While offered load is below capacity, all queries are served with no
//     added delay.
//   - Above capacity, the site serves exactly its capacity; the rest is
//     dropped at the ingress (loss fraction 1 - capacity/offered).
//   - Queues in front of the saturated link inflate the RTT of *successful*
//     queries — "industrial-scale bufferbloat" (§3.3.2): K-AMS went from
//     ~30 ms to 1-2 s while remaining up.
//
// The package also provides the per-server view behind a site's load
// balancer (§3.5), the withdraw state machine that turns persistent
// overload into BGP withdrawals for sites with the Withdraw policy (§2.2),
// and the adaptive controller that steers a whole letter's announcements
// from its sites' counters (the automated policy management of §5).
package netsim

import (
	"errors"
	"fmt"
	"math"

	"github.com/rootevent/anycastddos/internal/anycast"
)

// ErrBadCapacity is returned by Evaluate for a non-positive capacity.
// Capacity values can originate in configuration (and, with fault
// injection, be scaled at runtime), so the model reports them as errors
// instead of panicking.
var ErrBadCapacity = errors.New("netsim: non-positive capacity")

// Config holds the calibration constants of the queue model.
type Config struct {
	// MaxBufferDelayMs caps bufferbloat-induced extra delay. Calibrated
	// to the ~2 s RTTs observed at K-AMS during the second event.
	MaxBufferDelayMs float64
	// DelaySlopeMs is the extra delay added per unit of overload ratio
	// beyond 1 (e.g. offered = 2x capacity adds DelaySlopeMs ms).
	DelaySlopeMs float64
	// OnsetUtilization is the utilization above which queueing delay
	// starts to build even before hard loss (0.9 means the last 10% of
	// capacity comes with growing queues).
	OnsetUtilization float64
}

// DefaultConfig returns the calibration used for the event reproduction.
func DefaultConfig() Config {
	return Config{MaxBufferDelayMs: 1900, DelaySlopeMs: 1100, OnsetUtilization: 0.9}
}

// Load is the traffic offered to one site during one time step.
type Load struct {
	LegitQPS  float64
	AttackQPS float64
}

// Offered returns the total offered rate.
func (l Load) Offered() float64 { return l.LegitQPS + l.AttackQPS }

// State is the resulting service quality at a site for one time step.
type State struct {
	OfferedQPS   float64
	ServedQPS    float64
	LossFrac     float64 // fraction of incoming queries dropped
	ExtraDelayMs float64 // queueing delay added to successful queries
	Utilization  float64 // offered / capacity
}

// Evaluate computes the site state for a given capacity and load.
// Capacity must be positive; otherwise a zero State and an error
// wrapping ErrBadCapacity are returned.
func Evaluate(capacityQPS float64, load Load, cfg Config) (State, error) {
	if capacityQPS <= 0 {
		return State{}, fmt.Errorf("%w: %v", ErrBadCapacity, capacityQPS)
	}
	offered := load.Offered()
	st := State{OfferedQPS: offered, Utilization: offered / capacityQPS}
	if offered <= capacityQPS {
		st.ServedQPS = offered
		if st.Utilization > cfg.OnsetUtilization && cfg.OnsetUtilization < 1 {
			// Queue build-up in the last slice before saturation.
			frac := (st.Utilization - cfg.OnsetUtilization) / (1 - cfg.OnsetUtilization)
			st.ExtraDelayMs = clamp(frac*cfg.DelaySlopeMs*0.25, 0, cfg.MaxBufferDelayMs)
		}
		return st, nil
	}
	st.ServedQPS = capacityQPS
	st.LossFrac = 1 - capacityQPS/offered
	st.ExtraDelayMs = clamp(cfg.DelaySlopeMs*0.25+(st.Utilization-1)*cfg.DelaySlopeMs, 0, cfg.MaxBufferDelayMs)
	return st, nil
}

//repolint:hot
func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ServerView is the per-server service quality behind a site's load
// balancer, as seen by measurement probes (§3.5).
type ServerView struct {
	// Responds[i] reports whether server i+1 answers probe queries at
	// all during this step.
	Responds []bool
	// LossFrac[i] is the loss probability for probes directed to server
	// i+1 (meaningful when Responds[i]).
	LossFrac []float64
	// ExtraDelayMs[i] is the queueing delay at server i+1.
	ExtraDelayMs []float64
	// Active is the isolated server (1-based) under ServersIsolate and
	// overload, else 0.
	Active int
}

// Servers derives the per-server view from a site's aggregate state.
//
// eventIndex identifies which stress period is in effect (0 before any
// event); ServersIsolate sites concentrate probe traffic on a different
// server in each event, reproducing K-FRA answering from S2 in the first
// event and S3 in the second (Figure 12).
func Servers(site *anycast.Site, st State, cfg Config, eventIndex int) ServerView {
	n := site.NumServers
	v := ServerView{
		Responds:     make([]bool, n),
		LossFrac:     make([]float64, n),
		ExtraDelayMs: make([]float64, n),
	}
	overloaded := st.LossFrac > 0
	if !overloaded {
		for i := 0; i < n; i++ {
			v.Responds[i] = true
			v.ExtraDelayMs[i] = st.ExtraDelayMs
		}
		return v
	}
	switch site.ServerMode {
	case anycast.ServersIsolate:
		// The balancer pins surviving (non-attack) flows to one server;
		// probes to the others go unanswered. Successful replies keep a
		// near-normal RTT — the isolated server is shielded from the
		// saturated queue (Figure 13 top: K-FRA RTT stays flat).
		active := 1 + eventIndex%n
		v.Active = active
		for i := 0; i < n; i++ {
			if i+1 == active {
				v.Responds[i] = true
				v.LossFrac[i] = st.LossFrac
				v.ExtraDelayMs[i] = clamp(st.ExtraDelayMs*0.1, 0, 120)
			}
		}
	default: // ServersShared
		for i := 0; i < n; i++ {
			v.Responds[i] = true
			v.LossFrac[i] = st.LossFrac
			v.ExtraDelayMs[i] = st.ExtraDelayMs
			if site.HotServer == i+1 {
				// The hot server carries a disproportionate share
				// (K-NRT-S2): more loss and more delay.
				v.LossFrac[i] = clamp(st.LossFrac*1.5, 0, 0.98)
				v.ExtraDelayMs[i] = clamp(st.ExtraDelayMs*1.35, 0, cfg.MaxBufferDelayMs*1.2)
			}
		}
	}
	return v
}

// ProbeServer resolves one probe's server selection without materializing a
// full ServerView: given the server the balancer hashed the probe to, it
// returns the server that actually handles it (the isolated server under
// ServersIsolate and overload, otherwise the hashed one) and that server's
// response behaviour. It is the allocation-free scalar form of Servers for
// per-probe hot paths; for any (site, state, eventIndex), the returned
// values equal the corresponding ServerView entries after the caller-side
// Active redirect.
//
//repolint:hot
func ProbeServer(site *anycast.Site, st State, cfg Config, eventIndex, server int) (srv int, responds bool, lossFrac, extraDelayMs float64) {
	if st.LossFrac <= 0 {
		return server, true, 0, st.ExtraDelayMs
	}
	switch site.ServerMode {
	case anycast.ServersIsolate:
		// All surviving traffic lands on the isolated server (Figure 12);
		// it answers with near-normal RTT, shielded from the saturated
		// queue.
		active := 1 + eventIndex%site.NumServers
		return active, true, st.LossFrac, clamp(st.ExtraDelayMs*0.1, 0, 120)
	default: // ServersShared
		if site.HotServer == server {
			return server, true, clamp(st.LossFrac*1.5, 0, 0.98), clamp(st.ExtraDelayMs*1.35, 0, cfg.MaxBufferDelayMs*1.2)
		}
		return server, true, st.LossFrac, st.ExtraDelayMs
	}
}

// Router is the per-site announcement state machine. Sites with the
// Withdraw policy pull their BGP announcement after sustained overload and
// try again after a cooldown; Absorb sites stay announced no matter what.
// H-Root's primary/backup routing is built from two Routers by the core
// evaluator.
type Router struct {
	policy anycast.Policy
	// TriggerRatio is the utilization that counts as overload.
	TriggerRatio float64
	// HoldMinutes is how long overload must persist before withdrawing
	// (BGP sessions and operators do not react instantly).
	HoldMinutes int
	// CooldownMinutes is how long a withdrawn site stays down before
	// re-announcing. Long cooldowns reproduce the E-Root sites that
	// stayed down after the second event (Figure 6a).
	CooldownMinutes int

	announced   bool
	overMinutes int
	downSince   int
}

// NewRouter creates an announcement state machine for a site policy.
func NewRouter(policy anycast.Policy, triggerRatio float64, holdMinutes, cooldownMinutes int) *Router {
	return &Router{
		policy:          policy,
		TriggerRatio:    triggerRatio,
		HoldMinutes:     holdMinutes,
		CooldownMinutes: cooldownMinutes,
		announced:       true,
	}
}

// Announced reports whether the site's route is currently announced.
func (r *Router) Announced() bool { return r.announced }

// ForceWithdraw withdraws the route immediately (used for H-Root's primary
// and for operator actions). Returns true if the state changed.
func (r *Router) ForceWithdraw(minute int) bool {
	if !r.announced {
		return false
	}
	r.announced = false
	r.downSince = minute
	r.overMinutes = 0
	return true
}

// ForceAnnounce re-announces the route immediately. Returns true if the
// state changed.
func (r *Router) ForceAnnounce() bool {
	if r.announced {
		return false
	}
	r.announced = true
	r.overMinutes = 0
	return true
}

// RouterState is the serializable mutable state of a Router, captured for
// checkpointing. The policy and thresholds are configuration (rebuilt from
// the same Config on resume), so only the announcement dynamics appear
// here.
type RouterState struct {
	Announced   bool
	OverMinutes int
	DownSince   int
}

// State captures the router's mutable state for a checkpoint.
func (r *Router) State() RouterState {
	return RouterState{Announced: r.announced, OverMinutes: r.overMinutes, DownSince: r.downSince}
}

// Restore overwrites the router's mutable state from a checkpoint.
func (r *Router) Restore(s RouterState) {
	r.announced = s.Announced
	r.overMinutes = s.OverMinutes
	r.downSince = s.DownSince
}

// Step advances the state machine one minute given the site's current
// utilization (offered/capacity; a withdrawn site sees utilization 0). It
// returns whether the announcement state changed.
func (r *Router) Step(minute int, utilization float64) bool {
	if r.policy != anycast.Withdraw {
		return false
	}
	if r.announced {
		if utilization >= r.TriggerRatio {
			r.overMinutes++
			if r.overMinutes >= r.HoldMinutes {
				r.announced = false
				r.downSince = minute
				r.overMinutes = 0
				return true
			}
		} else {
			r.overMinutes = 0
		}
		return false
	}
	if minute-r.downSince >= r.CooldownMinutes {
		r.announced = true
		r.overMinutes = 0
		return true
	}
	return false
}

// NextChange returns the first minute m >= from at which Step(m, u) returns
// true when Step is called at every minute from `from` on with the same
// utilization u, or math.MaxInt when it never does. Step is integer
// counters, so this is arithmetic: an announced router at or over its
// trigger withdraws once its hold fills, a withdrawn one re-announces once
// its cooldown has passed, and any other router never changes.
func (r *Router) NextChange(from int, u float64) int {
	switch {
	case r.policy != anycast.Withdraw:
		return math.MaxInt
	case !r.announced:
		return max(from, r.downSince+r.CooldownMinutes)
	case u >= r.TriggerRatio:
		return from + max(0, r.HoldMinutes-r.overMinutes-1)
	default:
		return math.MaxInt
	}
}

// Skip advances the state machine through minutes [from, to) at a constant
// utilization u, leaving it as that many Step calls would. None of those
// calls may change the announcement: to must not exceed NextChange(from, u).
func (r *Router) Skip(from, to int, u float64) {
	if to <= from || r.policy != anycast.Withdraw || !r.announced {
		return
	}
	if u >= r.TriggerRatio {
		r.overMinutes += to - from
	} else {
		r.overMinutes = 0
	}
}
