// Package faults is the seeded, fully deterministic fault-injection
// subsystem ("tremor"). A Plan is a schedule of typed fault events —
// site outages, link flaps, capacity loss, vantage-point churn, packet
// loss bursts, and monitoring gaps — that the core evaluator and the
// defense harness replay on top of an attack scenario.
//
// Everything is deterministic: a Plan is plain data, RandomPlan derives a
// plan purely from (seed, profile), and per-VP churn decisions come from
// a hash of (event seed, VP id). Injecting the same plan at any worker
// count therefore produces byte-identical output, which is what lets the
// engine's worker-equivalence guarantees extend to faulted runs.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// Kind is the type of one fault event.
type Kind uint8

// The fault taxonomy. Each kind maps to one seam of the system: routing
// (SiteOutage, LinkFlap), the queue model (CapacityDegrade,
// PacketLossBurst), the measurement plane (VPChurn), and the reporting
// plane (MonitorGap — the RSSAC-002 data holes of the paper's §3.1).
const (
	// SiteOutage forces every uplink of the target site down for the
	// window: the site vanishes from BGP and its catchment waterbeds
	// onto the surviving sites.
	SiteOutage Kind = iota
	// LinkFlap withdraws one transit edge (a single uplink, chosen
	// deterministically from the event seed) and re-announces it when
	// the window clears.
	LinkFlap
	// CapacityDegrade removes part of a site's serving capacity —
	// servers lost behind the load balancer. Severity is the fraction
	// of capacity lost (0.5 = half the servers down).
	CapacityDegrade
	// VPChurn disconnects a Severity-sized fraction of the Atlas
	// vantage points for the window; their probes record nothing,
	// leaving NoData gaps in the cleaned dataset.
	VPChurn
	// PacketLossBurst adds Severity extra path loss toward the target
	// site, composed with whatever loss the queue model produces.
	PacketLossBurst
	// MonitorGap suppresses the letter's RSSAC-002 measurement for the
	// window: the affected minutes go missing from the daily report.
	MonitorGap
	// HealthProbeLoss drops a Severity-sized fraction of the *control
	// plane's* active health probes toward the target site — the data
	// plane is untouched. This is the fault that tempts a health-driven
	// site manager into withdrawing a healthy site on probe evidence
	// alone, which is why its monitor demands corroborating server-side
	// signals before acting.
	HealthProbeLoss

	numKinds
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case SiteOutage:
		return "site-outage"
	case LinkFlap:
		return "link-flap"
	case CapacityDegrade:
		return "capacity-degrade"
	case VPChurn:
		return "vp-churn"
	case PacketLossBurst:
		return "packet-loss-burst"
	case MonitorGap:
		return "monitor-gap"
	case HealthProbeLoss:
		return "health-probe-loss"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Wildcard targets.
const (
	// AnyLetter targets every letter known to the compiled shape.
	AnyLetter byte = 0
	// AnySite targets every site of the letter.
	AnySite int = -1
)

// ErrBadPlan marks an invalid plan or event; unwrap with errors.Is.
var ErrBadPlan = errors.New("faults: invalid plan")

// Event is one scheduled fault: a kind, a [Start, Start+Duration) minute
// window, a target, and (where meaningful) a severity and a seed for the
// event's internal coin flips.
type Event struct {
	Kind  Kind
	Start int // minute the fault begins
	// Duration is the fault's length in minutes; the fault clears (site
	// re-announces, capacity returns, VPs reconnect) at End().
	Duration int
	// Letter targets one root letter, or AnyLetter for all. Ignored by
	// VPChurn (the measurement population is global).
	Letter byte
	// Site targets one site of the letter (normalized modulo the
	// letter's site count at compile time), or AnySite for all. Ignored
	// by VPChurn and MonitorGap.
	Site int
	// Severity in [0, 1]: fraction of capacity lost, of VPs
	// disconnected, or of extra path loss. SiteOutage, LinkFlap, and
	// MonitorGap are all-or-nothing and ignore it.
	Severity float64
	// Seed drives the event's deterministic coin flips (which uplink a
	// LinkFlap hits, which VPs a VPChurn disconnects).
	Seed uint64
}

// End returns the first minute after the fault window.
func (e Event) End() int { return e.Start + e.Duration }

// ActiveAt reports whether the fault is in effect at a minute.
func (e Event) ActiveAt(minute int) bool { return minute >= e.Start && minute < e.End() }

func (e Event) validate(i int) error {
	if e.Kind >= numKinds {
		return fmt.Errorf("%w: event %d: unknown kind %d", ErrBadPlan, i, e.Kind)
	}
	if e.Start < 0 {
		return fmt.Errorf("%w: event %d (%s): start %d", ErrBadPlan, i, e.Kind, e.Start)
	}
	if e.Duration < 1 {
		return fmt.Errorf("%w: event %d (%s): duration %d", ErrBadPlan, i, e.Kind, e.Duration)
	}
	if e.Severity < 0 || e.Severity > 1 {
		return fmt.Errorf("%w: event %d (%s): severity %v", ErrBadPlan, i, e.Kind, e.Severity)
	}
	if e.Site < AnySite {
		return fmt.Errorf("%w: event %d (%s): site %d", ErrBadPlan, i, e.Kind, e.Site)
	}
	// A CapacityDegrade at severity 1 would zero the site's capacity;
	// the compiled factor clamps, but reject it here so authored plans
	// say what they mean (use SiteOutage to take a site fully out).
	if e.Kind == CapacityDegrade && e.Severity >= 1 {
		return fmt.Errorf("%w: event %d: capacity-degrade severity %v (use site-outage)", ErrBadPlan, i, e.Severity)
	}
	return nil
}

// Plan is a named schedule of fault events. The zero value (or nil) is a
// valid empty plan.
type Plan struct {
	Name   string
	Events []Event
}

// Validate checks every event of the plan.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for i, e := range p.Events {
		if err := e.validate(i); err != nil {
			return err
		}
	}
	return nil
}

// String summarizes the plan as "name: N events (k site-outage, ...)".
func (p *Plan) String() string {
	if p == nil || len(p.Events) == 0 {
		return "empty fault plan"
	}
	counts := make([]int, numKinds)
	for _, e := range p.Events {
		if e.Kind < numKinds {
			counts[e.Kind]++
		}
	}
	var parts []string
	for k := Kind(0); k < numKinds; k++ {
		if counts[k] > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", counts[k], k))
		}
	}
	name := p.Name
	if name == "" {
		name = "plan"
	}
	return fmt.Sprintf("%s: %d events (%s)", name, len(p.Events), strings.Join(parts, ", "))
}

// Profile parameterizes RandomPlan: how many events to draw, from which
// kinds, and within what bounds.
type Profile struct {
	Name    string
	Minutes int // schedule horizon events are drawn within
	Events  int // number of events
	Kinds   []Kind
	// MinDuration and MaxDuration bound event lengths (minutes).
	MinDuration int
	MaxDuration int
	// MaxSeverity caps drawn severities (capacity loss, VP churn
	// fraction, burst loss).
	MaxSeverity float64
	// Letters is the pool targeted letters are drawn from.
	Letters []byte
	// MaxSite bounds drawn site indices; the compiled plan normalizes
	// them modulo each letter's real site count.
	MaxSite int
}

// rootLetters is the default letter pool of the built-in profiles.
const rootLetters = "ABCDEFGHIJKLM"

// LightProfile draws a handful of moderate faults over the two event
// days — the default soak profile.
func LightProfile() Profile {
	return Profile{
		Name: "light", Minutes: 2880, Events: 6,
		Kinds:       []Kind{SiteOutage, LinkFlap, CapacityDegrade, VPChurn, PacketLossBurst, MonitorGap},
		MinDuration: 20, MaxDuration: 120, MaxSeverity: 0.5,
		Letters: []byte(rootLetters), MaxSite: 8,
	}
}

// HeavyProfile draws many overlapping, severe faults — the stress soak.
func HeavyProfile() Profile {
	return Profile{
		Name: "heavy", Minutes: 2880, Events: 14,
		Kinds:       []Kind{SiteOutage, LinkFlap, CapacityDegrade, VPChurn, PacketLossBurst, MonitorGap},
		MinDuration: 30, MaxDuration: 300, MaxSeverity: 0.9,
		Letters: []byte(rootLetters), MaxSite: 16,
	}
}

// MonitorProfile faults only the measurement and reporting planes
// (VPChurn, MonitorGap) — the paper's §2.4 data holes without any
// service impact, for testing analysis tolerance.
func MonitorProfile() Profile {
	return Profile{
		Name: "monitor", Minutes: 2880, Events: 8,
		Kinds:       []Kind{VPChurn, MonitorGap},
		MinDuration: 20, MaxDuration: 240, MaxSeverity: 0.6,
		Letters: []byte(rootLetters),
	}
}

// HealthMonProfile faults the control plane a self-healing site manager
// depends on: dropped health probes (the false-alarm generator) mixed with
// real site outages and path-loss bursts, so a soak exercises both "probe
// says down, site is fine" and "probe says down, site is down".
func HealthMonProfile() Profile {
	return Profile{
		Name: "healthmon", Minutes: 2880, Events: 10,
		Kinds:       []Kind{HealthProbeLoss, SiteOutage, PacketLossBurst},
		MinDuration: 10, MaxDuration: 90, MaxSeverity: 0.8,
		Letters: []byte(rootLetters), MaxSite: 8,
	}
}

// ProfileByName resolves the built-in profile names (light, heavy,
// monitor, healthmon) for command-line flags.
func ProfileByName(name string) (Profile, error) {
	switch name {
	case "light":
		return LightProfile(), nil
	case "heavy":
		return HeavyProfile(), nil
	case "monitor":
		return MonitorProfile(), nil
	case "healthmon":
		return HealthMonProfile(), nil
	default:
		return Profile{}, fmt.Errorf("%w: unknown profile %q (light, heavy, monitor, healthmon)", ErrBadPlan, name)
	}
}

// ParseSpec parses a fault spec as the command lines and campaign specs
// write it: "" or "none" disables injection (a nil plan);
// "random:SEED[:PROFILE]" draws RandomPlan(SEED, PROFILE), light by default.
func ParseSpec(spec string) (*Plan, error) {
	if spec == "" || spec == "none" {
		return nil, nil
	}
	parts := strings.Split(spec, ":")
	if parts[0] != "random" || len(parts) < 2 || len(parts) > 3 {
		return nil, fmt.Errorf("%w: bad spec %q: want none or random:SEED[:PROFILE]", ErrBadPlan, spec)
	}
	seed, err := strconv.ParseInt(parts[1], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("%w: bad seed %q: %w", ErrBadPlan, parts[1], err)
	}
	pr := LightProfile()
	if len(parts) == 3 {
		if pr, err = ProfileByName(parts[2]); err != nil {
			return nil, err
		}
	}
	return RandomPlan(seed, pr), nil
}

// RandomPlan derives a fault plan purely from (seed, profile): the same
// inputs always yield the same plan, so soak failures replay exactly.
func RandomPlan(seed int64, pr Profile) *Plan {
	rng := rand.New(rand.NewSource(seed))
	if pr.Minutes < 1 {
		pr.Minutes = 2880
	}
	if pr.MinDuration < 1 {
		pr.MinDuration = 1
	}
	if pr.MaxDuration < pr.MinDuration {
		pr.MaxDuration = pr.MinDuration
	}
	if pr.MaxSeverity <= 0 || pr.MaxSeverity > 1 {
		pr.MaxSeverity = 0.5
	}
	kinds := pr.Kinds
	if len(kinds) == 0 {
		kinds = LightProfile().Kinds
	}
	letters := pr.Letters
	if len(letters) == 0 {
		letters = []byte(rootLetters)
	}
	sev := func(min float64) float64 {
		hi := pr.MaxSeverity
		if hi < min {
			return min
		}
		return min + rng.Float64()*(hi-min)
	}
	p := &Plan{Name: fmt.Sprintf("random-%s-%d", pr.Name, seed)}
	for i := 0; i < pr.Events; i++ {
		dur := pr.MinDuration + rng.Intn(pr.MaxDuration-pr.MinDuration+1)
		span := pr.Minutes - dur
		if span < 1 {
			span = 1
		}
		e := Event{
			Kind:     kinds[rng.Intn(len(kinds))],
			Start:    rng.Intn(span),
			Duration: dur,
			Seed:     rng.Uint64(),
		}
		switch e.Kind {
		case VPChurn:
			e.Letter, e.Site = AnyLetter, AnySite
			e.Severity = sev(0.05)
		case MonitorGap:
			e.Letter, e.Site = letters[rng.Intn(len(letters))], AnySite
		case SiteOutage, LinkFlap:
			e.Letter = letters[rng.Intn(len(letters))]
			e.Site = rng.Intn(pr.MaxSite + 1)
			e.Severity = 1
		case CapacityDegrade:
			e.Letter = letters[rng.Intn(len(letters))]
			e.Site = rng.Intn(pr.MaxSite + 1)
			// Validation rejects severity 1 for degrades.
			if e.Severity = sev(0.1); e.Severity > 0.95 {
				e.Severity = 0.95
			}
		case PacketLossBurst, HealthProbeLoss:
			e.Letter = letters[rng.Intn(len(letters))]
			e.Site = rng.Intn(pr.MaxSite + 1)
			e.Severity = sev(0.1)
		}
		p.Events = append(p.Events, e)
	}
	// Stable presentation order; draws above already fixed the content.
	sort.SliceStable(p.Events, func(a, b int) bool {
		if p.Events[a].Start != p.Events[b].Start {
			return p.Events[a].Start < p.Events[b].Start
		}
		return p.Events[a].Kind < p.Events[b].Kind
	})
	return p
}
