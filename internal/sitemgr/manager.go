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
	// Seed generates the routing topology and seeds the health prober's
	// backoff jitter, so runs replay.
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

	// RRL passes through to each site's server.
	RRL *rrl.Config
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
	return nil
}

// managedSite is one site's runtime: its server, its health machine, and
// the counter snapshot the next tick's delta starts from.
type managedSite struct {
	name string
	fsm  *FSM
	srv  *dnsserver.Server
	addr string
	prev dnsserver.Stats
}

// Manager runs one letter's sites and their control loop. Methods are not
// safe for concurrent use — drive it from one goroutine.
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
// fabric generated from Seed with site i originated by ASN i (the tier-1s)
// and every site announced, and — when JournalPath is set — the
// decision journal, replaying any existing records so a restarted manager
// resumes with each site's state, announce position, and damping penalty
// intact.
func New(cfg ManagerConfig) (*Manager, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	g, err := topo.Generate(topo.DefaultConfig(cfg.Seed))
	if err != nil {
		return nil, fmt.Errorf("sitemgr: generate topology: %w", err)
	}
	origins := make([]bgpsim.Origin, len(cfg.Sites))
	for i := range origins {
		origins[i] = bgpsim.Origin{Site: i, Host: topo.ASN(i)}
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
	for _, name := range cfg.Sites {
		srv, err := dnsserver.StartWithTCP(dnsserver.Config{
			Letter: cfg.Letter,
			Site:   name,
			Server: 1,
			RRL:    cfg.RRL,
		})
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
				if !js.state.Announced() {
					m.fabric.Withdraw(i)
					s.srv.SetDraining(true)
				}
			}
		}
	}
	return m, nil
}

// SiteAddr returns site i's listen address.
func (m *Manager) SiteAddr(i int) string { return m.sites[i].addr }

// TickOnce runs one assessment round: per site, gather the two signal
// families (active probe, server counter delta), advance the health
// machine, journal the decision, and apply it to the fabric and the
// server's drain state. The state file (if configured) is rewritten last.
func (m *Manager) TickOnce(ctx context.Context) error {
	m.tick++
	for i, s := range m.sites {
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
	snap := s.srv.Snapshot()
	delta := snap.Sub(s.prev)
	s.prev = snap
	sig := Signals{
		LossRate: delta.LossRate(), RRLRate: delta.RRLRate(), Backlog: delta.Backlog(),
		Stopped: !s.srv.Reading(),
	}

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
		s.srv.SetDraining(true)
	case ActAnnounce:
		m.fabric.Announce(i)
		s.srv.SetDraining(false)
	}
	return nil
}

// reasonFor summarizes the evidence behind a decision for the journal.
func reasonFor(act Action, sig Signals) string {
	server := fmt.Sprintf("loss %.2f rrl %.2f backlog %d", sig.LossRate, sig.RRLRate, sig.Backlog)
	if sig.Stopped {
		server = "server stopped reading"
	}
	switch act {
	case ActWithdraw:
		return "probe+server bad (" + server + ")"
	case ActAnnounce:
		return "probes recovered, penalty decayed"
	}
	if !sig.ProbeOK {
		return "probe failed"
	}
	return "server signals (" + server + ")"
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

// Close stops every server, closes the journal and releases the health
// prober's sockets, joining their errors.
func (m *Manager) Close() error {
	var errs []error
	if err := m.prober.Close(); err != nil {
		errs = append(errs, err)
	}
	for _, s := range m.sites {
		if err := s.srv.Close(); err != nil {
			errs = append(errs, err)
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
