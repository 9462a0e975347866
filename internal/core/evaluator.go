package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"github.com/rootevent/anycastddos/internal/anycast"
	"github.com/rootevent/anycastddos/internal/atlas"
	"github.com/rootevent/anycastddos/internal/attack"
	"github.com/rootevent/anycastddos/internal/bgpmon"
	"github.com/rootevent/anycastddos/internal/bgpsim"
	"github.com/rootevent/anycastddos/internal/chaos"
	"github.com/rootevent/anycastddos/internal/faults"
	"github.com/rootevent/anycastddos/internal/geo"
	"github.com/rootevent/anycastddos/internal/netsim"
	"github.com/rootevent/anycastddos/internal/rssac"
	"github.com/rootevent/anycastddos/internal/stats"
	"github.com/rootevent/anycastddos/internal/topo"
)

// Config parameterizes a full event reproduction.
type Config struct {
	Seed int64

	// Topology; zero value selects topo.DefaultConfig(Seed).
	Topology *topo.Config

	// VPs is the Atlas population size (9000 reproduces the paper's
	// scale; smaller values keep tests fast with the same dynamics).
	VPs int

	// Minutes simulated; defaults to the two observation days.
	Minutes int

	// BotnetOrigins is how many stub ASes source attack traffic.
	BotnetOrigins int

	// Collectors is the BGPmon peer count (the paper used 152).
	Collectors int

	// RawLetters get per-probe retention (needed for Figures 11-13).
	RawLetters []byte

	// Netsim holds the queue model calibration.
	Netsim netsim.Config

	// Withdraw dynamics.
	TriggerRatio    float64 // utilization counting as overload (default 2.5)
	HoldMinutes     int     // sustained overload before withdrawing (default 8)
	CooldownMinutes int     // base re-announce delay (default 70)
	// FlapHold/FlapCooldown drive emergent session failures at Absorb
	// sites with flappy uplinks.
	FlapHold     int // default 6
	FlapCooldown int // default 25

	// ForcePolicy, when set, overrides every site's stress policy — the
	// ablation knob for comparing an all-absorb, an all-withdraw and an
	// adaptive root deployment (forcing Absorb or Adaptive also disables
	// session flaps). Under Adaptive each letter's sites keep absorb
	// routers and one netsim.Adaptive moves them; a primary/backup letter
	// is left to its switch.
	ForcePolicy *anycast.Policy
}

// DefaultConfig returns a full-scale configuration.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:            seed,
		VPs:             9000,
		Minutes:         attack.SimMinutes,
		BotnetOrigins:   60,
		Collectors:      152,
		RawLetters:      []byte("K"),
		Netsim:          netsim.DefaultConfig(),
		TriggerRatio:    2.5,
		HoldMinutes:     8,
		CooldownMinutes: 70,
		FlapHold:        6,
		FlapCooldown:    25,
	}
}

func (c *Config) fillDefaults() {
	if c.VPs == 0 {
		c.VPs = 9000
	}
	if c.Minutes == 0 {
		c.Minutes = attack.SimMinutes
	}
	if c.BotnetOrigins == 0 {
		c.BotnetOrigins = 60
	}
	if c.Collectors == 0 {
		c.Collectors = 152
	}
	if c.RawLetters == nil {
		c.RawLetters = []byte("K")
	}
	if c.Netsim == (netsim.Config{}) {
		c.Netsim = netsim.DefaultConfig()
	}
	if c.TriggerRatio == 0 {
		c.TriggerRatio = 2.5
	}
	if c.HoldMinutes == 0 {
		c.HoldMinutes = 8
	}
	if c.CooldownMinutes == 0 {
		c.CooldownMinutes = 70
	}
	if c.FlapHold == 0 {
		c.FlapHold = 6
	}
	if c.FlapCooldown == 0 {
		c.FlapCooldown = 25
	}
}

// epoch is one routing regime of a letter: the table that held from Start
// until the next epoch, plus the per-site traffic shares it implies.
type epoch struct {
	Start      int
	Table      *bgpsim.Table
	LegitFrac  []float64 // per site: share of the letter's legitimate load
	AttackFrac []float64 // per site: share of the letter's attack load
	// act is the effective announcement vector the table was computed
	// from, captured only when checkpointing is enabled: snapshots store
	// epochs as (Start, act) and resume replays the vectors through the
	// (pure) route computation instead of serializing tables.
	act []bool
}

// originState is one BGP announcement (site uplink) and its state machine.
type originState struct {
	site   int
	router *netsim.Router
	// flap marks an uplink whose BGP session fails under shared-fabric
	// congestion (city excess), not only local overload.
	flap bool
	// quietU is the router's input throughout the current quiet span.
	quietU float64
}

// flapExcessQPS converts city-level excess load into the utilization signal
// flappy uplinks react to: at this excess, the shared fabric is congested
// enough that BGP sessions start timing out.
const flapExcessQPS = 250_000

// letterState carries one letter's routing and per-minute service state.
// During Run, each letterState is owned by exactly one engine worker per
// minute; nothing here is shared across letters.
type letterState struct {
	letter  *anycast.Letter
	origins []bgpsim.Origin
	states  []originState
	active  []bool
	epochs  []epoch

	// index is the letter's position in SortedLetters order; the engine's
	// barrier merges cross-letter contributions in this order.
	index int
	// targeted caches sched.Targeted(letter) for the probe hot path.
	targeted bool
	// tableCache memoizes computed route tables by effective announcement
	// vector (packed to a bitset key). Compute is a pure function of
	// (graph, origins, active), so a flap cycle returning to a
	// previously-seen vector reuses the exact table — and the cached
	// LegitFrac/AttackFrac that derive from it — without recomputing.
	tableCache map[string]*routeEntry
	keyBuf     []byte
	// epochIdx maps minute -> index into epochs, built once after Run so
	// post-run probe lookups are O(1) instead of a per-probe binary search.
	epochIdx []int32
	// siteCity[si] indexes the site's city in the evaluator's city tables
	// (-1 when unknown), replacing a per-probe map lookup.
	siteCity []int32
	// txt aliases the evaluator's CHAOS identity strings for this letter.
	txt [][]string
	// effActive is active masked by the fault overlay (nil when the run
	// has no fault plan, so fault-free runs take the exact pre-fault
	// code paths). Routing and service computations read effective().
	effActive []bool
	// flt is this letter's slice of the compiled fault plan, fetched once
	// so the minute loop asks it by site and minute alone. Nil when the run
	// has no plan or the plan has nothing for this letter; its lookups
	// answer "no fault" on nil.
	flt *faults.Letter
	// uplinkOrd[oi] is the origin's site-local uplink ordinal and
	// siteUplinks[site] the site's uplink count — the coordinates
	// faults.Letter.SiteForcedDown addresses link flaps by.
	uplinkOrd   []int
	siteUplinks []int
	// util and announced are per-minute scratch (one slot per site),
	// reused across minutes to keep the hot loop allocation-free.
	util      []float64
	announced []bool
	// adaptive steers the letter's routers under ForcePolicy Adaptive (nil
	// otherwise); obs is what it observes, one slot per site, written by
	// the site pass.
	adaptive *netsim.Adaptive
	obs      []netsim.SiteObs
	// sitesMinute is the latest minute whose site pass ran in this process
	// (noSitePass before the first: a resumed run replays nothing it did
	// not compute), sitesEpochs and sitesAttackQPS the epoch count and attack
	// rate that pass was computed under — see stepLetter.
	sitesMinute    int
	sitesEpochs    int
	sitesAttackQPS float64
	// pending is the routing diff produced by the latest computeEpoch,
	// waiting to be handed to the BGP collector at the minute barrier.
	pending []bgpsim.Change

	// sites[si] is the site's service quality, minute by minute.
	sites []steps[siteState]

	// Aggregated per-minute letter traffic (for RSSAC).
	legitServed  []float64
	attackServed []float64
	retryServed  []float64
	responses    []float64
}

// noSitePass is letterState.sitesMinute before any site pass: the minute
// before no minute, not even minute 0.
const noSitePass = -2

// routeEntry is one memoized routing result: the table plus the per-site
// traffic shares derived from it. Entries are immutable once stored.
type routeEntry struct {
	table      *bgpsim.Table
	legitFrac  []float64
	attackFrac []float64
}

// packActiveKey appends the announcement vector as a bitset to dst and
// returns it — the table-cache key.
func packActiveKey(dst []byte, active []bool) []byte {
	var b byte
	for i, a := range active {
		if a {
			b |= 1 << (uint(i) & 7)
		}
		if i&7 == 7 {
			dst = append(dst, b)
			b = 0
		}
	}
	if len(active)&7 != 0 {
		dst = append(dst, b)
	}
	return dst
}

// buildEpochIndex materializes the minute -> epoch mapping after Run, so
// every later epochAt is a single slice load.
func (ls *letterState) buildEpochIndex(minutes int) {
	idx := make([]int32, minutes)
	j := 0
	for m := 0; m < minutes; m++ {
		for j+1 < len(ls.epochs) && ls.epochs[j+1].Start <= m {
			j++
		}
		idx[m] = int32(j)
	}
	ls.epochIdx = idx
}

// Evaluator runs the full reproduction and implements atlas.WalkWorld.
type Evaluator struct {
	Cfg        Config
	Graph      *topo.Graph
	Deployment *anycast.Deployment
	Population *atlas.Population
	Collector  *bgpmon.Collector
	Botnet     *attack.Botnet
	Clients    *attack.ClientPopulation
	RSSAC      *rssac.Accumulator

	letters map[byte]*letterState
	// letterTab is the dense by-byte view of letters, replacing a map
	// lookup on the per-probe hot path.
	letterTab [256]*letterState
	sched     *attack.Schedule
	opts      options
	// flt is the compiled fault plan (nil when faults are disabled).
	// All its lookups are read-only and per-letter, which is what keeps
	// worker-count equivalence intact under injection.
	flt *faults.Compiled

	// clientWeights is Clients.Weights flattened into ascending-ASN order:
	// catchment shares are float sums, and a fixed iteration order is what
	// makes them (and everything downstream) bit-reproducible.
	clientWeights []clientWeight
	// stubs caches Graph.StubASNs(), read concurrently by epoch workers.
	stubs []topo.ASN

	// cityExcess[cityIdx] is the total over-capacity query rate landing in
	// a city, across all letters, minute by minute (float64 bit patterns) —
	// the shared-infrastructure stress behind collateral damage (§3.6).
	// cityMinute is the minute's sums while the engine's barrier adds them.
	cityExcess []steps[uint64]
	cityMinute []float64
	cityIdx    map[string]int

	// NL models the .nl TLD's two anycast deployments colocated with
	// root sites (Figure 15); values are served query rates normalized
	// to the pre-event level.
	NLSites  []string // city codes (anonymized in the paper)
	NLSeries []*stats.Series

	// rttMatrix is the city-to-city baseline RTT table (baseRTT): shared
	// by every evaluator of the process, never written.
	rttMatrix [][]float64
	// vpCity[id] is each vantage point's city index (-1 unknown), and
	// asnCity[asn] each AS's, so per-probe RTT lookups index rttMatrix
	// directly instead of hashing city codes.
	vpCity  []int32
	asnCity []int32
	// evActive[m] caches sched.Active(m) for every simulated minute.
	evActive []int32
	// noSiteReplay makes every minute evaluate its sites from scratch and
	// step every router, crossing no quiet span; only the test that proves
	// the replay and the spans an equivalence sets it.
	noSiteReplay bool
	// onQuietSpan, when set, is told every quiet span [from, end) the run
	// crosses; only tests set it.
	onQuietSpan func(from, end int)
	// routes solves every letter's routing tables. It is immutable, so the
	// engine workers routing different letters share it.
	routes *bgpsim.Computer
	// routeOracle, when set, solves every routing epoch with it instead,
	// bypassing routes and the table memo; only the tests that hold the
	// engine to the reference routing computation set it.
	routeOracle func(*topo.Graph, []bgpsim.Origin, []bool) *bgpsim.Table
	// txt caches CHAOS identity strings per letter/site/server.
	txt map[byte][][]string

	// mu guards finalized; RSSAC finalization mutates report fields, so it
	// runs once per letter and the result is cached for concurrent readers.
	mu        sync.Mutex
	finalized map[byte][]*rssac.Report

	ran bool
}

// clientWeight is one stub AS's share of legitimate query load.
type clientWeight struct {
	asn topo.ASN
	w   float64
}

// NewEvaluator builds the full system: topology, deployment placement,
// population, botnet, collectors. Options configure execution — worker
// count, cancellation context, progress reporting, attack schedule —
// without touching the Config struct:
//
//	ev, err := core.NewEvaluator(cfg, core.WithWorkers(8), core.WithContext(ctx))
func NewEvaluator(cfg Config, opts ...Option) (*Evaluator, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	cfg.fillDefaults()
	tcfg := topo.DefaultConfig(cfg.Seed)
	if cfg.Topology != nil {
		tcfg = *cfg.Topology
	}
	g, err := topo.Generate(tcfg)
	if err != nil {
		return nil, err
	}
	dep, err := anycast.RootDeployment(cfg.Seed)
	if err != nil {
		return nil, err
	}
	if cfg.ForcePolicy != nil {
		if *cfg.ForcePolicy == anycast.Adaptive && o.checkpointDir != "" {
			// The snapshot has no field for a controller's trial state.
			return nil, fmt.Errorf("core: WithCheckpoint cannot checkpoint a ForcePolicy %v run", anycast.Adaptive)
		}
		for _, l := range dep.Letters {
			for _, s := range l.Sites {
				s.Policy = *cfg.ForcePolicy
				if *cfg.ForcePolicy == anycast.Absorb || *cfg.ForcePolicy == anycast.Adaptive {
					s.FlappyUplinks = 0
				}
			}
		}
	}
	if err := dep.Place(g, cfg.Seed+1); err != nil {
		return nil, err
	}
	pop, err := atlas.NewPopulation(g, atlas.PopulationConfig{
		N: cfg.VPs, Seed: cfg.Seed + 2, OldFirmwareFrac: 0.03, HijackedFrac: 0.008,
	})
	if err != nil {
		return nil, err
	}
	col, err := bgpmon.NewSampled(g, cfg.Collectors, cfg.Seed+3)
	if err != nil {
		return nil, err
	}
	sched := o.schedule
	if sched == nil {
		sched = attack.Nov2015Schedule()
	}
	ev := &Evaluator{
		Cfg:        cfg,
		opts:       o,
		sched:      sched,
		Graph:      g,
		routes:     bgpsim.NewComputer(g),
		Deployment: dep,
		Population: pop,
		Collector:  col,
		Botnet:     attack.NewBotnet(g, cfg.BotnetOrigins, cfg.Seed+4),
		Clients:    attack.NewClientPopulation(g, cfg.Seed+5),
		RSSAC:      rssac.NewAccumulator((cfg.Minutes+1439)/1440, attack.DefaultSourceMix),
		letters:    make(map[byte]*letterState),
		finalized:  make(map[byte][]*rssac.Report),
		NLSites:    []string{"AMS", "LHR"},
	}
	if err := ev.buildCaches(); err != nil {
		return nil, err
	}
	ev.buildLetterStates()
	if o.faults != nil {
		shape := faults.Shape{Minutes: cfg.Minutes, Sites: make(map[byte]int, len(dep.Letters))}
		for _, l := range dep.Letters {
			shape.Sites[l.Letter] = len(l.Sites)
		}
		flt, err := faults.Compile(o.faults, shape)
		if err != nil {
			return nil, fmt.Errorf("core: fault plan: %w", err)
		}
		if !flt.Empty() {
			ev.flt = flt
			for lb, ls := range ev.letters {
				ls.flt = flt.Letter(lb)
			}
		}
	}
	return ev, nil
}

func (ev *Evaluator) buildCaches() error {
	cities := geo.Cities()
	ev.cityIdx = make(map[string]int, len(cities))
	for i, c := range cities {
		ev.cityIdx[c.Code] = i
	}
	ev.rttMatrix = baseRTT()
	ev.txt = make(map[byte][][]string)
	for _, l := range ev.Deployment.Letters {
		perSite := make([][]string, len(l.Sites))
		for si, s := range l.Sites {
			perSite[si] = make([]string, s.NumServers+1)
			for srv := 1; srv <= s.NumServers; srv++ {
				// Site codes arrive from deployment config, so a malformed
				// one must surface as an error, not a panic.
				txt, err := chaos.Format(l.Letter, s.Code, srv)
				if err != nil {
					return fmt.Errorf("core: chaos identity for site %c-%s: %w", l.Letter, s.Code, err)
				}
				perSite[si][srv] = txt
			}
		}
		ev.txt[l.Letter] = perSite
	}
	ev.cityExcess = make([]steps[uint64], len(cities))
	ev.cityMinute = make([]float64, len(cities))
	ev.clientWeights = make([]clientWeight, 0, len(ev.Clients.Weights))
	for asn, w := range ev.Clients.Weights {
		ev.clientWeights = append(ev.clientWeights, clientWeight{asn: asn, w: w})
	}
	sort.Slice(ev.clientWeights, func(i, j int) bool {
		return ev.clientWeights[i].asn < ev.clientWeights[j].asn
	})
	ev.stubs = ev.Graph.StubASNs()
	ev.asnCity = make([]int32, ev.Graph.N())
	for i := range ev.asnCity {
		ev.asnCity[i] = cityIndexOf(ev.cityIdx, ev.Graph.ASes[i].City.Code)
	}
	ev.vpCity = make([]int32, len(ev.Population.VPs))
	for i := range ev.vpCity {
		ev.vpCity[i] = cityIndexOf(ev.cityIdx, ev.Population.VPs[i].City.Code)
	}
	ev.evActive = make([]int32, ev.Cfg.Minutes)
	for m := range ev.evActive {
		ev.evActive[m] = int32(ev.sched.Active(m))
	}
	return nil
}

// baseRTT is geo.DefaultRTTModel's RTT between every pair of geo.Cities(),
// indexed in that order. It is a constant of the program — a haversine per
// pair — so a process that builds many evaluators (a campaign's scenario
// worker) computes it once.
var baseRTT = sync.OnceValue(func() [][]float64 {
	cities := geo.Cities()
	m := make([][]float64, len(cities))
	for i := range cities {
		m[i] = make([]float64, len(cities))
		for j := range cities {
			m[i][j] = geo.DefaultRTTModel.RTTMs(cities[i], cities[j])
		}
	}
	return m
})

// cityIndexOf resolves a city code to its dense index, -1 when unknown.
func cityIndexOf(idx map[string]int, code string) int32 {
	if i, ok := idx[code]; ok {
		return int32(i)
	}
	return -1
}

func (ev *Evaluator) buildLetterStates() {
	for _, l := range ev.Deployment.Letters {
		ls := &letterState{letter: l}
		for si, s := range l.Sites {
			for u := 0; u < s.EffectiveUplinks(); u++ {
				ls.origins = append(ls.origins, bgpsim.Origin{
					Site: si, Host: s.Hosts[u], Local: s.Local,
				})
				var router *netsim.Router
				switch {
				case s.Policy == anycast.Withdraw:
					// Stagger cooldowns so withdrawn sites re-appear at
					// different times; every third withdraw-site stays
					// down much longer (the E-Root "shut down" group).
					cooldown := ev.Cfg.CooldownMinutes + (si*13)%40
					if si%3 == 2 {
						cooldown = 10 * ev.Cfg.CooldownMinutes
					}
					router = netsim.NewRouter(anycast.Withdraw, ev.Cfg.TriggerRatio, ev.Cfg.HoldMinutes+(si%4), cooldown)
				case u < s.FlappyUplinks:
					// Emergent session failure at an absorb site: a low
					// trigger, driven by both local overload and
					// shared-fabric congestion (see Run). A site's flappy
					// sessions share the congested fabric, so they fail
					// together — K-LHR lost essentially its whole
					// catchment at once (§3.4.2). SlowRestore sessions
					// stay down long after the stress ends, which is
					// what leaves the paper's group-4 VPs ("flip and
					// stay") at their new site after the event.
					cooldown := ev.Cfg.FlapCooldown
					if s.SlowRestore {
						cooldown *= 16
					}
					router = netsim.NewRouter(anycast.Withdraw, 1.15, ev.Cfg.FlapHold, cooldown)
				default:
					router = netsim.NewRouter(anycast.Absorb, ev.Cfg.TriggerRatio, ev.Cfg.HoldMinutes, ev.Cfg.CooldownMinutes)
				}
				ls.states = append(ls.states, originState{
					site:   si,
					router: router,
					flap:   s.Policy == anycast.Absorb && u < s.FlappyUplinks,
				})
			}
		}
		// H-Root primary/backup: the backup starts un-announced.
		ls.active = make([]bool, len(ls.origins))
		for i := range ls.active {
			ls.active[i] = true
		}
		if l.PrimaryBackup && len(l.Sites) >= 2 {
			for oi, o := range ls.origins {
				if o.Site != 0 {
					ls.active[oi] = false
					ls.states[oi].router.ForceWithdraw(0)
				}
			}
		}
		nSites := len(l.Sites)
		ls.uplinkOrd = make([]int, len(ls.origins))
		ls.siteUplinks = make([]int, nSites)
		for oi, o := range ls.origins {
			ls.uplinkOrd[oi] = ls.siteUplinks[o.Site]
			ls.siteUplinks[o.Site]++
		}
		ls.sites = make([]steps[siteState], nSites)
		ls.legitServed = make([]float64, ev.Cfg.Minutes)
		ls.attackServed = make([]float64, ev.Cfg.Minutes)
		ls.retryServed = make([]float64, ev.Cfg.Minutes)
		ls.responses = make([]float64, ev.Cfg.Minutes)
		ls.util = make([]float64, nSites)
		ls.announced = make([]bool, nSites)
		if ev.Cfg.ForcePolicy != nil && *ev.Cfg.ForcePolicy == anycast.Adaptive && !l.PrimaryBackup {
			ls.adaptive = &netsim.Adaptive{}
			ls.obs = make([]netsim.SiteObs, nSites)
		}
		ls.sitesMinute = noSitePass
		ls.targeted = ev.sched.Targeted(l.Letter)
		ls.tableCache = make(map[string]*routeEntry)
		ls.txt = ev.txt[l.Letter]
		ls.siteCity = make([]int32, nSites)
		for si, s := range l.Sites {
			ls.siteCity[si] = cityIndexOf(ev.cityIdx, s.City.Code)
		}
		ev.letters[l.Letter] = ls
		ev.letterTab[l.Letter] = ls
	}
	for i, lb := range ev.Deployment.SortedLetters() {
		ev.letters[lb].index = i
	}
}

// computeEpoch recomputes routing and traffic shares for a letter and
// leaves the routing diff in ls.pending for the engine's barrier to hand
// to the BGP collector (the only shared sink). Safe to call from an engine
// worker: it reads only immutable evaluator state and writes only ls.
//
// Routing is memoized: the table (and the traffic shares derived from it)
// is a pure function of the effective announcement vector, so a flap cycle
// that returns to a previously-seen vector reuses the stored result. Cache
// misses are solved from scratch by the evaluator's shared Computer, so a
// hit and a miss yield the same table and the epoch sequence — and the BGP
// diff stream derived from it — is unchanged by the caching.
func (ev *Evaluator) computeEpoch(ls *letterState, minute int) {
	act := ls.effective()
	ent := ev.routeEntryFor(ls, act)
	ep := epoch{Start: minute, Table: ent.table, LegitFrac: ent.legitFrac, AttackFrac: ent.attackFrac}
	if ev.opts.checkpointDir != "" {
		// act aliases ls.active/effActive, which mutate in place; epochs
		// destined for snapshots need their own copy of the vector.
		ep.act = append([]bool(nil), act...)
	}
	if len(ls.epochs) > 0 {
		prev := ls.epochs[len(ls.epochs)-1]
		// Append rather than overwrite: a fault transition and a router
		// change can both recompute within the same minute, and the
		// collector must see both diffs.
		ls.pending = bgpsim.AppendDiff(ls.pending, prev.Table, ent.table)
	}
	ls.epochs = append(ls.epochs, ep)
}

// routeEntryFor resolves the routing result for an effective announcement
// vector: a memo hit, or a solve on the evaluator's Computer that is then
// memoized. Shared by computeEpoch and by checkpoint restore's epoch replay,
// so a resumed run rebuilds the identical memo contents.
func (ev *Evaluator) routeEntryFor(ls *letterState, act []bool) *routeEntry {
	if ev.routeOracle != nil {
		return ev.newRouteEntry(ls, ev.routeOracle(ev.Graph, ls.origins, act))
	}
	ls.keyBuf = packActiveKey(ls.keyBuf[:0], act)
	if hit, ok := ls.tableCache[string(ls.keyBuf)]; ok {
		return hit
	}
	ent := ev.newRouteEntry(ls, ev.routes.Compute(ls.origins, act))
	ls.tableCache[string(ls.keyBuf)] = ent
	return ent
}

// newRouteEntry derives the per-site traffic shares from a routing table.
// The result is immutable: epochs and the table cache alias it freely.
func (ev *Evaluator) newRouteEntry(ls *letterState, table *bgpsim.Table) *routeEntry {
	nSites := len(ls.letter.Sites)
	legit := make([]float64, nSites)
	attackShare := make([]float64, nSites)
	// clientWeights is in ascending-ASN order (not map order) so the float
	// summation sequence is identical across runs and worker counts.
	for _, cw := range ev.clientWeights {
		if site := table.SiteOf(cw.asn); site >= 0 {
			legit[site] += cw.w
		}
	}
	for i, asn := range ev.Botnet.Origins {
		if site := table.SiteOf(asn); site >= 0 {
			attackShare[site] += ev.Botnet.Weights[i] * (1 - attack.BackgroundShare)
		}
	}
	// Attack ingress: BackgroundShare of the flood arrives uniformly from
	// every stub AS (spoofed sources are everywhere); the rest enters
	// through the concentrated botnet.
	if len(ev.stubs) > 0 {
		per := attack.BackgroundShare / float64(len(ev.stubs))
		for _, asn := range ev.stubs {
			if site := table.SiteOf(asn); site >= 0 {
				attackShare[site] += per
			}
		}
	}
	return &routeEntry{table: table, legitFrac: legit, attackFrac: attackShare}
}

// effective returns the announcement vector routing should see: active
// masked by the fault overlay when a plan is injected, active itself
// otherwise.
func (ls *letterState) effective() []bool {
	if ls.effActive != nil {
		return ls.effActive
	}
	return ls.active
}

// epochAt returns the routing epoch in force at a minute, or nil when the
// letter has no epochs yet or the minute is negative (misuse paths that
// previously indexed out of bounds).
func (ls *letterState) epochAt(minute int) *epoch {
	if i := ls.epochIndexAt(minute); i >= 0 {
		return &ls.epochs[i]
	}
	return nil
}

// epochIndexAt is epochAt as an index into ls.epochs, -1 for none: the last
// epoch with Start <= minute, or the first when even that starts later.
func (ls *letterState) epochIndexAt(minute int) int {
	if minute < 0 || len(ls.epochs) == 0 {
		return -1
	}
	if ls.epochIdx != nil {
		// Post-run fast path: the minute -> epoch index built by Run makes
		// the lookup a single load instead of a binary search.
		if minute >= len(ls.epochIdx) {
			minute = len(ls.epochIdx) - 1
		}
		return int(ls.epochIdx[minute])
	}
	// During Run the epoch in force is almost always the newest one.
	if last := len(ls.epochs) - 1; ls.epochs[last].Start <= minute {
		return last
	}
	// Epochs are appended in time order; binary search the last with
	// Start <= minute.
	i := sort.Search(len(ls.epochs), func(i int) bool { return ls.epochs[i].Start > minute })
	if i == 0 {
		return 0
	}
	return i - 1
}

// Run executes the minute loop. It must be called exactly once before
// Probe/Dataset accessors. It honors the context given via WithContext;
// use RunContext to pass one per call.
func (ev *Evaluator) Run() error {
	return ev.RunContext(ev.opts.ctx)
}

// buildNLSeries materializes the .nl collateral series (Figure 15). The
// paper anonymizes which root sites the two .nl anycast nodes share
// infrastructure with; we anchor them to the two most event-stressed
// absorbing root sites — exactly the "located near Root DNS servers"
// condition — and starve them in proportion to the shared rack's overload.
func (ev *Evaluator) buildNLSeries() {
	type anchor struct {
		letter byte
		site   int
		stress float64
	}
	// evBefore[m] counts the event minutes before minute m.
	evBefore := make([]int, ev.Cfg.Minutes+1)
	for m, e := range ev.evActive {
		evBefore[m+1] = evBefore[m]
		if e >= 0 {
			evBefore[m+1]++
		}
	}
	var anchors []anchor
	for lb, ls := range ev.letters {
		if !ev.sched.Targeted(lb) {
			continue
		}
		for si := range ls.letter.Sites {
			// A site's mean event-minute loss, step by step: a step adds its
			// loss at each of its event minutes, one addition at a time, and
			// only counts them when that loss is +0, whose addition changes
			// no bit of the sum.
			var sum float64
			n := 0
			for m := 0; m < ev.Cfg.Minutes; {
				st, end := ls.sites[si].span(m)
				end = min(end, ev.Cfg.Minutes)
				n += evBefore[end] - evBefore[m]
				if !st.route || st.loss == 0 {
					m = end
				}
				for ; m < end; m++ {
					if ev.evActive[m] >= 0 {
						sum += st.lossFrac()
					}
				}
			}
			if n > 0 {
				anchors = append(anchors, anchor{lb, si, sum / float64(n)})
			}
		}
	}
	sort.Slice(anchors, func(i, j int) bool {
		if anchors[i].stress != anchors[j].stress {
			return anchors[i].stress > anchors[j].stress
		}
		if anchors[i].letter != anchors[j].letter {
			return anchors[i].letter < anchors[j].letter
		}
		return anchors[i].site < anchors[j].site
	})
	nNL := 2
	if len(anchors) < nNL {
		nNL = len(anchors)
	}
	ev.NLSites = ev.NLSites[:0]
	ev.NLSeries = make([]*stats.Series, nNL)
	for i := 0; i < nNL; i++ {
		a := anchors[i]
		ls := ev.letters[a.letter]
		site := ls.letter.Sites[a.site]
		ev.NLSites = append(ev.NLSites, site.City.Code)
		ci := ev.cityIdx[site.City.Code]
		s := stats.NewSeries(fmt.Sprintf("nl-anycast-%d", i+1), 0, 10, ev.Cfg.Minutes/10)
		for b := 0; b < s.Bins(); b++ {
			var served float64
			for m := b * 10; m < (b+1)*10 && m < ev.Cfg.Minutes; m++ {
				rootLoss := 0.0
				if st := ls.sites[a.site].get(m); st.route {
					rootLoss = st.lossFrac()
				}
				// Sharing a saturated rack link: the small .nl node is
				// starved much harder than the root's own loss rate.
				shared := 1 - (1-rootLoss)*(1-rootLoss)*(1-rootLoss)*(1-rootLoss)
				if cl := ev.nlLoss(ci, m); cl > shared {
					shared = cl
				}
				if shared > 0.98 {
					shared = 0.98
				}
				served += 1 - shared
			}
			s.Values[b] = served / 10
		}
		ev.NLSeries[i] = s
	}
}

// fillAnnounced sets ls.announced[site] to whether any of the site's
// uplinks is announced (fault overlay included), for every site in one
// pass over the origins.
//
//repolint:hot
func (ls *letterState) fillAnnounced() {
	for si := range ls.announced {
		ls.announced[si] = false
	}
	act := ls.effective()
	for oi := range ls.origins {
		if act[oi] {
			ls.announced[ls.origins[oi].Site] = true
		}
	}
}

// Collateral-damage calibration: the excess rate (q/s) in a city at which
// co-located, not-directly-attacked services start losing queries, and the
// rate at which loss saturates.
const (
	collateralOnsetQPS = 600_000
	collateralFullQPS  = 6_000_000
	// .nl's anycast nodes share racks with root sites, so they saturate
	// much earlier (Figure 15 shows them dropping to ~zero).
	nlFullQPS = 1_500_000
)

// collateralLoss is the query-loss probability that city-level stress
// imposes on co-located services.
func collateralLoss(excess float64, fullQPS float64) float64 {
	if excess <= collateralOnsetQPS {
		return 0
	}
	l := (excess - collateralOnsetQPS) / (fullQPS - collateralOnsetQPS)
	if l > 0.97 {
		l = 0.97
	}
	return l
}

// excessAt is city ci's summed excess load at a minute.
//
//repolint:hot
func (ev *Evaluator) excessAt(ci int32, minute int) float64 {
	return math.Float64frombits(ev.cityExcess[ci].get(minute))
}

// nlLoss is the loss experienced by a .nl anycast node in city ci.
func (ev *Evaluator) nlLoss(ci, minute int) float64 {
	l := collateralLoss(ev.excessAt(int32(ci), minute), nlFullQPS)
	if l > 0.97 {
		l = 0.97
	}
	return l
}

// mix64 is the splitmix64 finalizer, used to derive per-probe coins.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// cityRTTIdx is the baseline RTT between two pre-resolved city indices
// (-1 = unknown, 150 ms), the form the walk kernel and Upstream use.
func (ev *Evaluator) cityRTTIdx(a, b int32) float64 {
	if a < 0 || b < 0 {
		return 150
	}
	return ev.rttMatrix[a][b]
}

// Measure runs the Atlas campaign against the completed simulation and
// returns the cleaned dataset. It honors the context given via
// WithContext; use MeasureContext to pass one per call.
func (ev *Evaluator) Measure() (*atlas.Dataset, error) {
	return ev.MeasureContext(ev.opts.ctx)
}

// MeasureContext runs the Atlas campaign under a context. The VP
// population is sharded across the configured worker count (WithWorkers);
// each shard writes into its own pre-sized slice segment of the dataset,
// so the result is byte-identical for every worker count.
func (ev *Evaluator) MeasureContext(ctx context.Context) (*atlas.Dataset, error) {
	if !ev.ran {
		return nil, fmt.Errorf("core: Run() must complete before Measure()")
	}
	cfg := atlas.DefaultScheduleConfig()
	cfg.Minutes = ev.Cfg.Minutes
	cfg.RawLetters = ev.Cfg.RawLetters
	cfg.Workers = ev.opts.workers
	if fn := ev.opts.progress; fn != nil {
		cfg.Progress = func(done, total int) {
			fn(Progress{Stage: StageMeasure, Done: done, Total: total})
		}
	}
	d, err := atlas.RunContext(ctx, ev.Population, ev, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: measure: %w", err)
	}
	return d, nil
}

// LetterSites returns the site list for a letter (helper for analysis).
// The returned slice is a defensive copy — callers may reorder or append
// to it freely — but the *anycast.Site values it points at are shared with
// the evaluator and must be treated as read-only.
func (ev *Evaluator) LetterSites(letter byte) []*anycast.Site {
	l, ok := ev.Deployment.Letter(letter)
	if !ok {
		return nil
	}
	return append([]*anycast.Site(nil), l.Sites...)
}

// LetterServedSeries returns per-minute served legit+retry query rates for
// one letter (used for the L-Root letter-flip analysis, §3.2.2).
func (ev *Evaluator) LetterServedSeries(letter byte) (legit, attackQ, retry, responses []float64, err error) {
	ls, ok := ev.letters[letter]
	if !ok {
		return nil, nil, nil, nil, fmt.Errorf("core: unknown letter %c", letter)
	}
	return ls.legitServed, ls.attackServed, ls.retryServed, ls.responses, nil
}

// RSSACReports finalizes and returns a letter's daily reports. Valid only
// after Run completes (nil before). Finalization runs once per letter and
// is cached, so concurrent callers are safe; the returned slice is a
// defensive copy, but the *rssac.Report values are shared and read-only.
func (ev *Evaluator) RSSACReports(letter byte) []*rssac.Report {
	if !ev.ran {
		return nil
	}
	ev.mu.Lock()
	defer ev.mu.Unlock()
	rs, ok := ev.finalized[letter]
	if !ok {
		rs = ev.RSSAC.Finalize(letter)
		ev.finalized[letter] = rs
	}
	return append([]*rssac.Report(nil), rs...)
}

// SiteAt returns the site serving an AS for one letter at a minute (or
// bgpsim.NoSite). Valid only after Run.
func (ev *Evaluator) SiteAt(letter byte, asn topo.ASN, minute int) int {
	ls, ok := ev.letters[letter]
	if !ok || !ev.ran {
		return bgpsim.NoSite
	}
	ep := ls.epochAt(minute)
	if ep == nil {
		return bgpsim.NoSite
	}
	return ep.Table.SiteOf(asn)
}

// TraceAt reconstructs the AS-level forwarding path from an AS toward one
// letter's prefix at a minute — the simulator's traceroute, used to
// cross-validate CHAOS catchment mapping (§2.1, following Fan et al.).
func (ev *Evaluator) TraceAt(letter byte, asn topo.ASN, minute int) ([]topo.ASN, int) {
	ls, ok := ev.letters[letter]
	if !ok || !ev.ran {
		return nil, bgpsim.NoSite
	}
	ep := ls.epochAt(minute)
	if ep == nil {
		return nil, bgpsim.NoSite
	}
	return ep.Table.Trace(asn, 64)
}

// CityRTTms exposes the baseline city-to-city RTT model used for probe
// outcomes (150 ms for unknown codes).
func (ev *Evaluator) CityRTTms(a, b string) float64 {
	return ev.cityRTTIdx(cityIndexOf(ev.cityIdx, a), cityIndexOf(ev.cityIdx, b))
}

// Schedule returns the attack scenario this evaluator runs.
func (ev *Evaluator) Schedule() *attack.Schedule { return ev.sched }

// SimulatedEvents returns the indexes into Schedule().Events of the events
// that end inside the simulated horizon. A run shortened with Cfg.Minutes
// (one day of the two, say) has no data for the later events, so per-event
// figures iterate these rather than every scheduled event.
func (ev *Evaluator) SimulatedEvents() []int {
	var idx []int
	for i, e := range ev.sched.Events {
		if e.EndMinute <= ev.Cfg.Minutes {
			idx = append(idx, i)
		}
	}
	return idx
}
