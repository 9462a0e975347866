package sitemgr

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"github.com/rootevent/anycastddos/internal/atomicio"
	"github.com/rootevent/anycastddos/internal/bgpsim"
	"github.com/rootevent/anycastddos/internal/dnsserver"
	"github.com/rootevent/anycastddos/internal/faults"
	"github.com/rootevent/anycastddos/internal/rrl"
	"github.com/rootevent/anycastddos/internal/topo"
)

// ManagerConfig describes one letter's managed deployment.
type ManagerConfig struct {
	// Letter is the root letter served (required).
	Letter byte
	// Sites are the IATA names of the sites to run, one server each
	// (required, at least one).
	Sites []string
	// MinAnnounced is the safety floor: the manager never lets the
	// announced-site count drop below it — a withdraw that would is
	// vetoed and the site absorbs instead (default 1).
	MinAnnounced int
	// Seed drives every stochastic element (server loss coins, probe
	// backoff jitter) so runs replay.
	Seed int64

	// JournalPath enables the crash-safe decision journal; empty
	// disables it. A manager restarted onto an existing journal resumes
	// each site's state and damping penalty.
	JournalPath string
	// StatePath, when set, is atomically rewritten after every tick with
	// the manager's observable state (StateFile JSON) for soaks and
	// dashboards.
	StatePath string

	// FSM tunes the per-site health machines.
	FSM Config

	// Graph is the routing topology; nil generates the default graph
	// from Seed. Hosts assigns each site's origin AS; nil uses
	// ASN 0..len(Sites)-1 (the tier-1s of a generated graph).
	Graph *topo.Graph
	Hosts []topo.ASN
	// SampleASNs are published in the state file with their currently
	// serving site — the catchment-shift observable the failover soak
	// checks against real probes.
	SampleASNs []topo.ASN

	// Faults optionally injects control-plane faults: HealthProbeLoss
	// events swallow probe attempts (minute = tick).
	Faults *faults.Compiled

	// ProbeTimeout bounds each health-probe attempt (default 500ms);
	// ProbeRetries adds attempts on timeout (default 1, negative for
	// none).
	ProbeTimeout time.Duration
	ProbeRetries int

	// RRL, Workers, LossProb, and Delay pass through to each site's
	// server.
	RRL      *rrl.Config
	Workers  int
	LossProb float64
	Delay    time.Duration

	// MaxRestarts bounds crashed-site restarts per site (default 3).
	MaxRestarts int
	// RestartBackoffTicks is the backoff before the first restart, in
	// ticks; it doubles per consumed restart, capped at 16 ticks
	// (default 2).
	RestartBackoffTicks int

	// Interval is Run's tick period (default 250ms). TickOnce ignores
	// it: tests and soaks step the manager manually.
	Interval time.Duration
}

func (c *ManagerConfig) setDefaults() error {
	if c.Letter == 0 {
		return errors.New("sitemgr: Letter required")
	}
	if len(c.Sites) == 0 {
		return errors.New("sitemgr: at least one site required")
	}
	if c.MinAnnounced <= 0 {
		c.MinAnnounced = 1
	}
	if c.MinAnnounced > len(c.Sites) {
		return fmt.Errorf("sitemgr: MinAnnounced %d exceeds site count %d", c.MinAnnounced, len(c.Sites))
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 500 * time.Millisecond
	}
	if c.ProbeRetries < 0 {
		c.ProbeRetries = 0
	} else if c.ProbeRetries == 0 {
		c.ProbeRetries = 1
	}
	if c.MaxRestarts <= 0 {
		c.MaxRestarts = 3
	}
	if c.RestartBackoffTicks <= 0 {
		c.RestartBackoffTicks = 2
	}
	if c.Interval <= 0 {
		c.Interval = 250 * time.Millisecond
	}
	return nil
}

// managedSite is one site's runtime: its server (nil while crashed), its
// health machine, and its restart bookkeeping.
type managedSite struct {
	name            string
	fsm             *FSM
	srv             *dnsserver.Server
	addr            string // pinned listen address, stable across restarts
	prev            dnsserver.Stats
	restarts        int
	nextRestartTick int // 0 = no restart scheduled
}

// Manager runs one letter's sites and their control loop. Methods are not
// safe for concurrent use — drive it from one goroutine (Run does).
type Manager struct {
	cfg      ManagerConfig
	fabric   *bgpsim.Fabric
	journal  *journal
	prober   *dnsserver.Prober
	sites    []*managedSite
	tick     int
	attempts uint64 // monotonic probe-attempt counter for fault coins
}

// New starts the deployment: N servers on loopback (UDP+TCP), the routing
// fabric with every site announced, and — when JournalPath is set — the
// decision journal, replaying any existing records so a restarted manager
// resumes with each site's state, announce position, and damping penalty
// intact.
func New(cfg ManagerConfig) (*Manager, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	g := cfg.Graph
	if g == nil {
		var err error
		if g, err = topo.Generate(topo.DefaultConfig(cfg.Seed)); err != nil {
			return nil, fmt.Errorf("sitemgr: generate topology: %w", err)
		}
	}
	hosts := cfg.Hosts
	if hosts == nil {
		for i := range cfg.Sites {
			hosts = append(hosts, topo.ASN(i))
		}
	}
	if len(hosts) != len(cfg.Sites) {
		return nil, fmt.Errorf("sitemgr: %d hosts for %d sites", len(hosts), len(cfg.Sites))
	}
	origins := make([]bgpsim.Origin, len(cfg.Sites))
	for i, h := range hosts {
		origins[i] = bgpsim.Origin{Site: i, Host: h}
	}

	m := &Manager{
		cfg:    cfg,
		fabric: bgpsim.NewFabric(g, origins),
		prober: dnsserver.NewProber(cfg.Seed),
	}
	m.prober.Timeout = cfg.ProbeTimeout
	m.prober.Retries = cfg.ProbeRetries

	fail := func(err error) (*Manager, error) {
		return nil, errors.Join(err, m.Close())
	}
	for i, name := range cfg.Sites {
		srv, err := m.startServer(name, i, "")
		if err != nil {
			return fail(fmt.Errorf("sitemgr: start site %s: %w", name, err))
		}
		m.sites = append(m.sites, &managedSite{
			name: name,
			fsm:  NewFSM(cfg.FSM),
			srv:  srv,
			addr: srv.Addr().String(),
		})
	}

	if cfg.JournalPath != "" {
		j, recs, err := openJournal(cfg.JournalPath)
		if err != nil {
			return fail(err)
		}
		m.journal = j
		replayed, lastTick, err := replayJournal(recs, cfg.Letter, len(cfg.Sites), cfg.Seed)
		if err != nil {
			return fail(err)
		}
		if len(recs) == 0 {
			if err := j.append(JournalRecord{
				Type: RecMeta, Letter: string(cfg.Letter), Sites: len(cfg.Sites), Seed: cfg.Seed,
			}); err != nil {
				return fail(err)
			}
		} else {
			m.tick = lastTick
			for i, js := range replayed {
				s := m.sites[i]
				s.fsm.Restore(js.state, js.penalty)
				s.restarts = js.restarts
				if !js.state.Announced() {
					m.fabric.Withdraw(i)
					s.srv.SetDraining(true)
				}
			}
		}
	}
	return m, nil
}

// startServer binds one site's server; addr pins the listen address
// (restart path) and "" takes an ephemeral port (first start).
func (m *Manager) startServer(name string, index int, addr string) (*dnsserver.Server, error) {
	return dnsserver.StartWithTCP(dnsserver.Config{
		Letter:   m.cfg.Letter,
		Site:     name,
		Server:   1,
		Addr:     addr,
		RRL:      m.cfg.RRL,
		Workers:  m.cfg.Workers,
		LossProb: m.cfg.LossProb,
		Delay:    m.cfg.Delay,
		Seed:     m.cfg.Seed + int64(index),
	})
}

// SiteAddr returns site i's pinned listen address.
func (m *Manager) SiteAddr(i int) string { return m.sites[i].addr }

// KillSite simulates a site crash: the server is closed and the manager
// notices on the next tick, withdrawing the route and scheduling a
// restart with capped exponential backoff.
func (m *Manager) KillSite(i int) error {
	s := m.sites[i]
	if s.srv == nil {
		return nil
	}
	err := s.srv.Close()
	s.srv = nil
	return err
}

// TickOnce runs one assessment round: per site, gather the two signal
// families (active probe, server counter delta), advance the health
// machine, journal the decision, and apply it to the fabric and the
// server's drain state. Crashed sites are restarted once their backoff
// expires, up to the restart budget. The state file (if configured) is
// rewritten last.
func (m *Manager) TickOnce(ctx context.Context) error {
	m.tick++
	for i, s := range m.sites {
		if s.srv == nil {
			if err := m.maybeRestart(ctx, i, s); err != nil {
				return err
			}
		}
		sig := m.assess(ctx, i, s)
		before := s.fsm.State()
		act := s.fsm.Tick(sig)
		if err := m.apply(i, s, before, act, sig); err != nil {
			return err
		}
	}
	return m.publishState()
}

// assess gathers one site's Signals for this tick.
func (m *Manager) assess(ctx context.Context, i int, s *managedSite) Signals {
	sig := Signals{Alive: s.srv != nil}
	if !sig.Alive {
		s.prev = dnsserver.Stats{}
		return sig
	}
	snap := s.srv.Snapshot()
	delta := snap.Sub(s.prev)
	s.prev = snap
	sig.LossRate = delta.LossRate()
	sig.RRLRate = delta.RRLRate()
	sig.Backlog = delta.Backlog()

	m.attempts++
	if m.cfg.Faults != nil && m.cfg.Faults.ProbeDropped(m.cfg.Letter, i, m.tick, m.attempts) {
		// The fault swallowed this attempt in flight: probe family bad,
		// server family untouched — exactly the uncorroborated evidence
		// the FSM refuses to withdraw on.
		return sig
	}
	res, err := m.prober.ProbeContext(ctx, s.srv.Addr(), m.cfg.Letter)
	sig.ProbeOK = err == nil && res.Matched
	return sig
}

// apply journals and executes one site's decision. The journal append
// happens before the routing change: a crash between the two replays the
// intent, never loses it.
func (m *Manager) apply(i int, s *managedSite, before State, act Action, sig Signals) error {
	after := s.fsm.State()
	if before == after && act == ActNone {
		return nil
	}
	reason := reasonFor(act, sig)
	if act == ActWithdraw && m.fabric.AnnouncedCount() <= m.cfg.MinAnnounced {
		// Floor veto: the deployment cannot afford another withdraw.
		// The site stays in service and absorbs (§5: degraded service
		// beats no service).
		s.fsm.Absorb()
		return m.journalAppend(JournalRecord{
			Type: RecAbsorb, Tick: m.tick, Site: i,
			From: before.String(), To: s.fsm.State().String(),
			Reason: "floor veto: " + reason, Penalty: s.fsm.Penalty(),
		})
	}
	if err := m.journalAppend(JournalRecord{
		Type: RecTransition, Tick: m.tick, Site: i,
		From: before.String(), To: after.String(),
		Action: act.String(), Reason: reason, Penalty: s.fsm.Penalty(),
	}); err != nil {
		return err
	}
	switch act {
	case ActWithdraw:
		m.fabric.Withdraw(i)
		if s.srv != nil {
			s.srv.SetDraining(true)
		}
	case ActAnnounce:
		m.fabric.Announce(i)
		if s.srv != nil {
			s.srv.SetDraining(false)
		}
	}
	return nil
}

// reasonFor summarizes the evidence behind a decision for the journal.
func reasonFor(act Action, sig Signals) string {
	if !sig.Alive {
		return "crash"
	}
	switch act {
	case ActWithdraw:
		return fmt.Sprintf("probe+server bad (loss %.2f rrl %.2f backlog %d)",
			sig.LossRate, sig.RRLRate, sig.Backlog)
	case ActAnnounce:
		return "probes recovered, penalty decayed"
	}
	if !sig.ProbeOK {
		return "probe failed"
	}
	return fmt.Sprintf("server signals (loss %.2f rrl %.2f backlog %d)",
		sig.LossRate, sig.RRLRate, sig.Backlog)
}

// maybeRestart restarts a crashed site once its backoff expires, within
// the restart budget. A failed rebind consumes a restart and doubles the
// backoff.
func (m *Manager) maybeRestart(ctx context.Context, i int, s *managedSite) error {
	if s.restarts >= m.cfg.MaxRestarts {
		return nil
	}
	if s.nextRestartTick == 0 {
		s.nextRestartTick = m.tick + m.restartBackoff(s.restarts)
		return nil
	}
	if m.tick < s.nextRestartTick {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	s.restarts++
	s.nextRestartTick = 0
	srv, err := m.startServer(s.name, i, s.addr)
	if err != nil {
		// The old port can linger briefly; retry after a doubled backoff.
		s.nextRestartTick = m.tick + m.restartBackoff(s.restarts)
		return m.journalAppend(JournalRecord{
			Type: RecRestart, Tick: m.tick, Site: i,
			Reason: "rebind failed: " + err.Error(), Restarts: s.restarts,
		})
	}
	s.srv = srv
	s.prev = dnsserver.Stats{}
	if !s.fsm.State().Announced() {
		srv.SetDraining(true)
	}
	return m.journalAppend(JournalRecord{
		Type: RecRestart, Tick: m.tick, Site: i,
		Reason: "restarted", Restarts: s.restarts,
	})
}

// restartBackoff is the capped exponential backoff (in ticks) before
// restart number `restarts`.
func (m *Manager) restartBackoff(restarts int) int {
	d := m.cfg.RestartBackoffTicks
	for i := 0; i < restarts && d < 16; i++ {
		d *= 2
	}
	if d > 16 {
		d = 16
	}
	return d
}

func (m *Manager) journalAppend(rec JournalRecord) error {
	if m.journal == nil {
		return nil
	}
	return m.journal.append(rec)
}

// SiteStatus is one site's externally visible position.
type SiteStatus struct {
	Index     int     `json:"index"`
	Name      string  `json:"name"`
	Addr      string  `json:"addr"`
	State     string  `json:"state"`
	Penalty   float64 `json:"penalty"`
	Announced bool    `json:"announced"`
	Alive     bool    `json:"alive"`
	Restarts  int     `json:"restarts"`
	Catchment int     `json:"catchment"`
}

// SampleRoute is one sampled AS's current routing: which site serves it
// and that site's socket address ("" when no site does).
type SampleRoute struct {
	ASN  int32  `json:"asn"`
	Site int    `json:"site"`
	Addr string `json:"addr"`
}

// StateFile is the JSON document published at StatePath after every tick.
type StateFile struct {
	Letter    string        `json:"letter"`
	Tick      int           `json:"tick"`
	Announced int           `json:"announced"`
	Version   uint64        `json:"version"`
	Sites     []SiteStatus  `json:"sites"`
	Samples   []SampleRoute `json:"samples,omitempty"`
}

// Status returns the current per-site view.
func (m *Manager) Status() StateFile {
	sizes := m.fabric.CatchmentSizes()
	st := StateFile{
		Letter:    string(m.cfg.Letter),
		Tick:      m.tick,
		Announced: m.fabric.AnnouncedCount(),
		Version:   m.fabric.Version(),
	}
	for i, s := range m.sites {
		st.Sites = append(st.Sites, SiteStatus{
			Index:     i,
			Name:      s.name,
			Addr:      s.addr,
			State:     s.fsm.State().String(),
			Penalty:   s.fsm.Penalty(),
			Announced: m.fabric.Announced(i),
			Alive:     s.srv != nil,
			Restarts:  s.restarts,
			Catchment: sizes[i],
		})
	}
	for _, a := range m.cfg.SampleASNs {
		sr := SampleRoute{ASN: int32(a), Site: m.fabric.SiteOf(a)}
		if sr.Site >= 0 && sr.Site < len(m.sites) {
			sr.Addr = m.sites[sr.Site].addr
		}
		st.Samples = append(st.Samples, sr)
	}
	return st
}

// publishState atomically rewrites the state file, if configured.
func (m *Manager) publishState() error {
	if m.cfg.StatePath == "" {
		return nil
	}
	data, err := json.MarshalIndent(m.Status(), "", "  ")
	if err != nil {
		return fmt.Errorf("sitemgr: encode state: %w", err)
	}
	if err := atomicio.WriteFileBytes(m.cfg.StatePath, append(data, '\n')); err != nil {
		return fmt.Errorf("sitemgr: publish state: %w", err)
	}
	return nil
}

// Run drives TickOnce on a real ticker until the context ends. The FSMs
// never see the clock — only the tick cadence is wall time.
func (m *Manager) Run(ctx context.Context) error {
	ticker := time.NewTicker(m.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
			if err := m.TickOnce(ctx); err != nil {
				return err
			}
		}
	}
}

// Close stops every server and closes the journal, joining their errors.
func (m *Manager) Close() error {
	var errs []error
	for _, s := range m.sites {
		if s.srv != nil {
			if err := s.srv.Close(); err != nil {
				errs = append(errs, err)
			}
			s.srv = nil
		}
	}
	if m.journal != nil {
		if err := m.journal.close(); err != nil {
			errs = append(errs, err)
		}
		m.journal = nil
	}
	return errors.Join(errs...)
}
