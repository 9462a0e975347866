// Package campaign sweeps a declarative grid of (attack, defense, fault)
// scenarios through isolated scenario worker processes and aggregates their
// outcome metrics into one machine-readable report.
//
// The paper answers "how well does anycast absorb a DDoS?" for one event;
// the interesting operational question is how the answer moves across the
// space of attack intensities, defense policies, and infrastructure
// faults. A Spec describes that space as axes; Expand turns it into a
// deterministic, ordered scenario list; the Runner executes each scenario
// in a long-lived worker process (one per parallel slot, replaced after any
// failed attempt) under a hard deadline, heartbeat-based stall detection,
// and bounded retries, recording progress in a crash-safe
// append-only Ledger so a killed campaign resumes without re-running
// completed scenarios; and the Report degrades gracefully — scenarios that
// keep failing are quarantined with a failure class instead of aborting
// the sweep.
//
// Everything that reaches the report is a deterministic function of the
// spec: scenario IDs, engine outcomes, quarantine classes. Wall-clock
// facts (attempt counts, timings) stay in the ledger, which is what makes
// a resumed campaign's report byte-identical to an uninterrupted one.
package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"github.com/rootevent/anycastddos/internal/anycast"
	"github.com/rootevent/anycastddos/internal/attack"
	"github.com/rootevent/anycastddos/internal/core"
	"github.com/rootevent/anycastddos/internal/faults"
	"github.com/rootevent/anycastddos/internal/topo"
)

// Spec is a declarative scenario grid: shared engine scale plus one value
// list per axis. Expand crosses the axes in a fixed order, so the same
// spec always yields the same scenario list with the same IDs.
type Spec struct {
	// Name labels the campaign in the report.
	Name string `json:"name"`

	// Engine scale shared by every scenario. Zero values select the grid
	// defaults (small topology, 120 VPs, 480 minutes), not the paper-scale
	// ones — grids multiply whatever cost a single scenario has.
	VPs           int           `json:"vps,omitempty"`
	Minutes       int           `json:"minutes,omitempty"`
	BotnetOrigins int           `json:"botnet_origins,omitempty"`
	Workers       int           `json:"workers,omitempty"`
	Topology      *TopologySpec `json:"topology,omitempty"`

	// Axes are the swept dimensions; an empty axis means its single
	// default value.
	Axes Axes `json:"axes"`

	// Chaos injects scripted failures into specific scenarios (by grid
	// index) — the test hook behind `make campaign-smoke`, which proves a
	// panicking and a stalling scenario end up quarantined, not fatal.
	Chaos []ChaosSpec `json:"chaos,omitempty"`
}

// TopologySpec sizes the synthetic AS graph.
type TopologySpec struct {
	Tier1s int `json:"tier1s"`
	Tier2s int `json:"tier2s"`
	Stubs  int `json:"stubs"`
}

// Axes are the swept grid dimensions. Expansion order is fixed: schedule,
// intensity, duration scale, target set, defense, faults, seed — the
// rightmost axis varies fastest.
type Axes struct {
	// Schedules names base attack scenarios: "nov2015" or "june2016".
	Schedules []string `json:"schedules,omitempty"`
	// Intensities scale every event's per-letter attack rate.
	Intensities []float64 `json:"intensities,omitempty"`
	// DurationScales stretch or shrink every event window (keeping its
	// start minute).
	DurationScales []float64 `json:"duration_scales,omitempty"`
	// Targets select the attacked letter set: "paper" keeps the schedule's
	// own spared set, "all" attacks every letter, "spare:DLM" spares
	// exactly the named letters.
	Targets []string `json:"targets,omitempty"`
	// Defenses force the per-site overload policy: "default" (the paper's
	// observed mix), "absorb", "withdraw", or "adaptive" (one feedback
	// controller per letter, netsim.Adaptive).
	Defenses []string `json:"defenses,omitempty"`
	// Faults are fault-plan specs: "none" or "random:SEED[:PROFILE]"
	// (profiles: light, heavy, monitor).
	Faults []string `json:"faults,omitempty"`
	// Seeds are topology/engine seeds.
	Seeds []int64 `json:"seeds,omitempty"`
}

// ChaosSpec scripts a failure into one scenario.
type ChaosSpec struct {
	// Scenario is the grid index (Scenario.Index) the failure applies to.
	Scenario int `json:"scenario"`
	// Kind is "panic" (panic at Minute), "stall" (stop heartbeating at
	// Minute, forever), or "exit" (exit with Code at Minute).
	Kind string `json:"kind"`
	// Minute is the simulated minute the failure fires at.
	Minute int `json:"minute"`
	// Code is the exit status for Kind "exit".
	Code int `json:"code,omitempty"`
}

// Scenario is one fully-resolved grid point. It is self-contained: the
// worker process rebuilds the engine configuration from it alone.
type Scenario struct {
	// ID is the stable scenario identifier: grid index, the human-salient
	// axes, and a short digest of every parameter.
	ID string `json:"id"`
	// Index is the 0-based position in grid expansion order.
	Index int `json:"index"`

	Schedule      string  `json:"schedule"`
	Intensity     float64 `json:"intensity"`
	DurationScale float64 `json:"duration_scale"`
	Target        string  `json:"target"`
	Defense       string  `json:"defense"`
	Faults        string  `json:"faults"`
	Seed          int64   `json:"seed"`

	VPs           int           `json:"vps"`
	Minutes       int           `json:"minutes"`
	BotnetOrigins int           `json:"botnet_origins"`
	Workers       int           `json:"workers"`
	Topology      *TopologySpec `json:"topology,omitempty"`

	Chaos *ChaosSpec `json:"chaos,omitempty"`
}

// ParseSpec decodes and validates a JSON spec, filling scale defaults.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	s := &Spec{}
	if err := dec.Decode(s); err != nil {
		return nil, fmt.Errorf("campaign: parse spec: %w", err)
	}
	s.fillDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Spec) fillDefaults() {
	if s.Name == "" {
		s.Name = "campaign"
	}
	if s.VPs == 0 {
		s.VPs = 120
	}
	if s.Minutes == 0 {
		s.Minutes = 480
	}
	if s.BotnetOrigins == 0 {
		s.BotnetOrigins = 25
	}
	if s.Workers == 0 {
		s.Workers = 2
	}
	if s.Topology == nil {
		s.Topology = &TopologySpec{Tier1s: 5, Tier2s: 40, Stubs: 400}
	}
	a := &s.Axes
	if len(a.Schedules) == 0 {
		a.Schedules = []string{"nov2015"}
	}
	if len(a.Intensities) == 0 {
		a.Intensities = []float64{1}
	}
	if len(a.DurationScales) == 0 {
		a.DurationScales = []float64{1}
	}
	if len(a.Targets) == 0 {
		a.Targets = []string{"paper"}
	}
	if len(a.Defenses) == 0 {
		a.Defenses = []string{"default"}
	}
	if len(a.Faults) == 0 {
		a.Faults = []string{"none"}
	}
	if len(a.Seeds) == 0 {
		a.Seeds = []int64{1}
	}
}

// Validate rejects a spec whose axis values cannot build a scenario. It
// runs at parse time so a bad grid fails before anything executes, not at
// scenario 37 of 64.
func (s *Spec) Validate() error {
	if s.VPs < 1 || s.Minutes < 1 || s.Workers < 1 || s.BotnetOrigins < 1 {
		return fmt.Errorf("campaign: spec scale must be positive (vps=%d minutes=%d workers=%d origins=%d)",
			s.VPs, s.Minutes, s.Workers, s.BotnetOrigins)
	}
	a := s.Axes
	for _, name := range a.Schedules {
		if _, err := baseSchedule(name); err != nil {
			return err
		}
	}
	for _, v := range a.Intensities {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("campaign: bad intensity %v", v)
		}
	}
	for _, v := range a.DurationScales {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("campaign: bad duration scale %v", v)
		}
	}
	for _, t := range a.Targets {
		if err := validateTarget(t); err != nil {
			return err
		}
	}
	for _, d := range a.Defenses {
		if _, err := forcePolicy(d); err != nil {
			return err
		}
	}
	for _, f := range a.Faults {
		if _, err := faults.ParseSpec(f); err != nil {
			return err
		}
	}
	n := s.GridSize()
	for _, c := range s.Chaos {
		if c.Scenario < 0 || c.Scenario >= n {
			return fmt.Errorf("campaign: chaos entry targets scenario %d, grid has %d", c.Scenario, n)
		}
		switch c.Kind {
		case "panic", "stall", "exit":
		default:
			return fmt.Errorf("campaign: unknown chaos kind %q (panic, stall, or exit)", c.Kind)
		}
		if c.Minute < 0 || c.Minute >= s.Minutes {
			return fmt.Errorf("campaign: chaos minute %d outside run of %d minutes", c.Minute, s.Minutes)
		}
	}
	return nil
}

// GridSize is the number of scenarios Expand yields.
func (s *Spec) GridSize() int {
	a := s.Axes
	return len(a.Schedules) * len(a.Intensities) * len(a.DurationScales) *
		len(a.Targets) * len(a.Defenses) * len(a.Faults) * len(a.Seeds)
}

// Digest identifies the expanded grid: the SHA-256 of the canonical
// (defaults-filled) spec JSON. The ledger records it so a resume under an
// edited spec is an error, never a silently mixed campaign.
func (s *Spec) Digest() string {
	data, err := json.Marshal(s)
	if err != nil {
		// A Spec is plain data; Marshal cannot fail on it. Keep the
		// signature error-free and make the impossible loud in the digest.
		return "unmarshalable:" + err.Error()
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Expand crosses the axes into the ordered scenario list. Expansion is
// deterministic: same spec, same scenarios, same IDs, in the same order.
func (s *Spec) Expand() []Scenario {
	a := s.Axes
	out := make([]Scenario, 0, s.GridSize())
	chaosByIndex := map[int]*ChaosSpec{}
	for i := range s.Chaos {
		chaosByIndex[s.Chaos[i].Scenario] = &s.Chaos[i]
	}
	idx := 0
	for _, sched := range a.Schedules {
		for _, intensity := range a.Intensities {
			for _, dur := range a.DurationScales {
				for _, target := range a.Targets {
					for _, defense := range a.Defenses {
						for _, fspec := range a.Faults {
							for _, seed := range a.Seeds {
								sc := Scenario{
									Index:         idx,
									Schedule:      sched,
									Intensity:     intensity,
									DurationScale: dur,
									Target:        target,
									Defense:       defense,
									Faults:        fspec,
									Seed:          seed,
									VPs:           s.VPs,
									Minutes:       s.Minutes,
									BotnetOrigins: s.BotnetOrigins,
									Workers:       s.Workers,
									Topology:      s.Topology,
									Chaos:         chaosByIndex[idx],
								}
								sc.ID = sc.makeID()
								out = append(out, sc)
								idx++
							}
						}
					}
				}
			}
		}
	}
	return out
}

// makeID builds the stable scenario identifier. The digest suffix covers
// every parameter, so two grid points differing only in, say, intensity
// never collide even though the readable prefix elides it.
func (sc *Scenario) makeID() string {
	withoutID := *sc
	withoutID.ID = ""
	data, _ := json.Marshal(&withoutID)
	sum := sha256.Sum256(data)
	return fmt.Sprintf("s%03d-%s-%s-seed%d-%s",
		sc.Index, sc.Schedule, sc.Defense, sc.Seed, hex.EncodeToString(sum[:4]))
}

// EngineConfig resolves the scenario into the engine configuration and
// options (schedule, defense policy, fault plan, workers). The caller —
// Execute, in the scenario worker — appends its own progress option.
func (sc *Scenario) EngineConfig() (core.Config, []core.Option, error) {
	cfg := core.DefaultConfig(sc.Seed)
	cfg.VPs = sc.VPs
	cfg.Minutes = sc.Minutes
	cfg.BotnetOrigins = sc.BotnetOrigins
	if sc.Topology != nil {
		cfg.Topology = &topo.Config{
			Tier1s: sc.Topology.Tier1s, Tier2s: sc.Topology.Tier2s,
			Stubs: sc.Topology.Stubs, Seed: sc.Seed,
		}
	}
	pol, err := forcePolicy(sc.Defense)
	if err != nil {
		return core.Config{}, nil, err
	}
	cfg.ForcePolicy = pol

	sched, err := sc.BuildSchedule()
	if err != nil {
		return core.Config{}, nil, err
	}
	opts := []core.Option{core.WithWorkers(sc.Workers), core.WithSchedule(sched)}
	plan, err := faults.ParseSpec(sc.Faults)
	if err != nil {
		return core.Config{}, nil, err
	}
	if plan != nil {
		opts = append(opts, core.WithFaults(plan))
	}
	return cfg, opts, nil
}

// BuildSchedule materializes the scenario's attack schedule: the named
// base scenario with intensity, duration, and target-set transforms
// applied.
func (sc *Scenario) BuildSchedule() (*attack.Schedule, error) {
	sched, err := baseSchedule(sc.Schedule)
	if err != nil {
		return nil, err
	}
	for i := range sched.Events {
		e := &sched.Events[i]
		e.PerLetterQPS *= sc.Intensity
		if sc.DurationScale != 1 {
			d := int(math.Round(float64(e.Duration()) * sc.DurationScale))
			if d < 1 {
				d = 1
			}
			e.EndMinute = e.StartMinute + d
		}
	}
	switch {
	case sc.Target == "paper":
		// keep the schedule's own spared set
	case sc.Target == "all":
		sched.Spared = map[byte]bool{}
	case strings.HasPrefix(sc.Target, "spare:"):
		spared := map[byte]bool{}
		for _, r := range strings.TrimPrefix(sc.Target, "spare:") {
			spared[byte(r)] = true
		}
		sched.Spared = spared
	default:
		return nil, fmt.Errorf("campaign: unknown target set %q", sc.Target)
	}
	return sched, nil
}

func validateTarget(t string) error {
	if t == "paper" || t == "all" {
		return nil
	}
	if letters, ok := strings.CutPrefix(t, "spare:"); ok {
		for _, r := range letters {
			if r < 'A' || r > 'M' {
				return fmt.Errorf("campaign: target %q spares non-root letter %q", t, r)
			}
		}
		return nil
	}
	return fmt.Errorf("campaign: unknown target set %q (paper, all, or spare:LETTERS)", t)
}

func baseSchedule(name string) (*attack.Schedule, error) {
	switch name {
	case "nov2015":
		return attack.Nov2015Schedule(), nil
	case "june2016":
		return attack.June2016Schedule(), nil
	default:
		return nil, fmt.Errorf("campaign: unknown schedule %q (nov2015 or june2016)", name)
	}
}

func forcePolicy(defense string) (*anycast.Policy, error) {
	switch defense {
	case "default":
		return nil, nil
	case "absorb":
		p := anycast.Absorb
		return &p, nil
	case "withdraw":
		p := anycast.Withdraw
		return &p, nil
	case "adaptive":
		p := anycast.Adaptive
		return &p, nil
	default:
		return nil, fmt.Errorf("campaign: unknown defense %q (default, absorb, withdraw, or adaptive)", defense)
	}
}
