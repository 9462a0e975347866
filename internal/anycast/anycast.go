// Package anycast models the Root DNS deployments of Table 2 of the paper:
// 13 letters, each an independent anycast (or unicast) service with its own
// site list, routing scope, capacities, and stress policy.
//
// The paper's central observation is that under DDoS, sites follow one of
// two emergent policies (§2.2): *withdraw* — pull BGP announcements and
// shift both good and bad traffic elsewhere — or *absorb* — keep answering
// as a "degraded absorber", dropping a fraction of queries and inflating
// RTTs. Policies here are attributes of sites; the core evaluator applies
// them when a site's offered load exceeds capacity.
package anycast

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/rootevent/anycastddos/internal/geo"
	"github.com/rootevent/anycastddos/internal/topo"
)

// Policy is a site's behaviour when overloaded.
type Policy uint8

// Site stress policies.
const (
	// Absorb keeps the site announced; excess queries are dropped and
	// latency grows with queue depth ("degraded absorber", §2.2).
	Absorb Policy = iota
	// Withdraw pulls the site's BGP announcement once overload persists,
	// moving its whole catchment to other sites (the "waterbed").
	Withdraw
	// Adaptive leaves the decision to one feedback controller per letter
	// (netsim.Adaptive), which withdraws and re-announces sites from their
	// served counters — the automated policy management of §5.
	Adaptive
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case Absorb:
		return "absorb"
	case Withdraw:
		return "withdraw"
	case Adaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("Policy(%d)", uint8(p))
	}
}

// ServerMode describes how a site's load balancer exposes its servers to
// legitimate clients under attack (§3.5).
type ServerMode uint8

// Server modes, matching the two behaviours in Figures 12/13.
const (
	// ServersShared spreads overload across all servers: every server
	// keeps answering a fraction of probes (K-NRT behaviour).
	ServersShared ServerMode = iota
	// ServersIsolate concentrates surviving probe traffic on a single
	// server under overload, with the chosen server changing between
	// events (K-FRA behaviour).
	ServersIsolate
)

// String returns the server-mode name.
func (m ServerMode) String() string {
	switch m {
	case ServersShared:
		return "shared"
	case ServersIsolate:
		return "isolate"
	default:
		return fmt.Sprintf("ServerMode(%d)", uint8(m))
	}
}

// Site is one anycast site of a letter.
type Site struct {
	Letter      byte
	Code        string // IATA city code; the site is named <Letter>-<Code>
	City        geo.City
	Local       bool // NO_EXPORT-scoped announcement (Table 2 "local" sites)
	CapacityQPS float64
	NumServers  int
	Policy      Policy
	ServerMode  ServerMode
	// HotServer, if >= 1, identifies a server that carries a
	// disproportionate share under ServersShared (K-NRT-S2, §3.5).
	HotServer int
	// Uplinks is the number of BGP announcements (upstream sessions)
	// this site makes; multi-uplink sites split their catchment.
	Uplinks int
	// ShallowBuffers marks sites whose ingress drops excess traffic
	// without deep queueing: overload produces loss but little RTT
	// inflation (B-Root's observed behaviour, §3.2.1).
	ShallowBuffers bool
	// MajorTransit marks sites hosted on top-layer transit regardless of
	// capacity (K-NRT: a well-connected site with modest hardware, which
	// is exactly why the events crushed it).
	MajorTransit bool
	// SlowRestore marks flapped sessions that stay down long after the
	// stress ends (an upstream in no hurry to re-enable the session) —
	// the mechanism behind the paper's group-4 VPs that flip away and
	// stay at their new site (§3.4.2).
	SlowRestore bool
	// FlappyUplinks is how many of those sessions fail (withdraw and
	// later return) under sustained overload even at Absorb sites —
	// the paper notes withdrawals can *emerge* from BGP session failure
	// under load (§2.2). K-LHR lost nearly all of its catchment this
	// way and K-FRA about half (§3.4.2).
	FlappyUplinks int
	// Host is the AS behind the site's first uplink; assigned by Place.
	Host topo.ASN
	// Hosts lists one AS per uplink (Hosts[0] == Host).
	Hosts []topo.ASN
}

// EffectiveUplinks returns Uplinks, defaulting to 1 when unset.
func (s *Site) EffectiveUplinks() int {
	if s.Uplinks < 1 {
		return 1
	}
	return s.Uplinks
}

// Name returns the paper's X-APT site name.
func (s *Site) Name() string { return fmt.Sprintf("%c-%s", s.Letter, s.Code) }

// Letter is one of the 13 root services.
type Letter struct {
	Letter   byte
	Operator string
	Unicast  bool
	// PrimaryBackup marks H-Root-style routing: only the first site is
	// announced; the second takes over when the first withdraws.
	PrimaryBackup bool
	// NormalQPS is the letter's baseline query load (Table 3 baselines:
	// 30-60 kq/s per letter).
	NormalQPS float64
	// ReportsRSSAC marks the five letters that published RSSAC-002 data
	// at event time (A, H, J, K, L; §2.4.2).
	ReportsRSSAC bool
	Sites        []*Site
}

// SiteByCode returns the site with the given IATA code.
func (l *Letter) SiteByCode(code string) (*Site, bool) {
	for _, s := range l.Sites {
		if s.Code == code {
			return s, true
		}
	}
	return nil, false
}

// Deployment is the full 13-letter root service.
type Deployment struct {
	Letters []*Letter
}

// Letter returns the service for a letter byte.
func (d *Deployment) Letter(b byte) (*Letter, bool) {
	for _, l := range d.Letters {
		if l.Letter == b {
			return l, true
		}
	}
	return nil, false
}

// siteSpec is the compact form used by the builder tables below.
type siteSpec struct {
	code         string
	capacity     float64 // queries/s
	servers      int
	local        bool
	policy       Policy
	mode         ServerMode
	hot          int
	uplinks      int
	flappy       int
	shallow      bool
	slow         bool
	majorTransit bool
}

// Capacity classes. The paper notes root services are overprovisioned by
// 10-100x of their ~40 kq/s normal load, yet the 5 Mq/s per-letter attack
// exceeded whole letters' aggregate capacity (§2.2, §3.1) — K-Root's
// largest site was crushed to 1-2 s RTTs. These 2015-scale capacities give
// a 30-site letter roughly 1.8 Mq/s aggregate (~45x normal), far below the
// flood.
const (
	capLarge  = 450_000
	capMedium = 160_000
	capSmall  = 60_000
	capTiny   = 20_000
)

// eRootSites reproduces the 32-site E-Root list of Figure 6a, ordered by
// median catchment size. E-Root's sites predominantly withdrew under stress
// (five sites "shut down" after the second event).
func eRootSites() []siteSpec {
	big := []string{"AMS", "FRA", "LHR", "ARC"}
	mid := []string{"CDG", "VIE", "QPG", "ORD", "KBP", "ZRH", "IAD", "PAO", "WAW", "ATL", "BER", "SYD", "SEA", "NLV", "MIA", "NRT", "TRN"}
	small := []string{"AKL", "MAN", "BUR", "LGA", "PER", "SNA", "LBA", "SIN", "DXB", "KGL", "LAD"}
	var out []siteSpec
	for _, c := range big {
		out = append(out, siteSpec{code: c, capacity: capMedium, servers: 4, policy: Withdraw, mode: ServersShared})
	}
	for _, c := range mid {
		out = append(out, siteSpec{code: c, capacity: capSmall, servers: 2, policy: Withdraw, mode: ServersShared})
	}
	for _, c := range small {
		out = append(out, siteSpec{code: c, capacity: capTiny, servers: 1, local: true, policy: Withdraw, mode: ServersShared})
	}
	return out
}

// kRootSites reproduces the 30-site K-Root list of Figure 6b. K-Root's
// well-connected sites acted as degraded absorbers: K-AMS stayed up at
// 1-2 s RTT, K-FRA isolated probes onto one server per event, and K-NRT's
// three servers all degraded with S2 hottest (§3.4.2, §3.5).
func kRootSites() []siteSpec {
	out := []siteSpec{
		// K-AMS sits on the Amsterdam exchange with several transit
		// sessions: when other K sites withdraw, routing overwhelmingly
		// prefers it (Figure 10: 70-80% of K-LHR/K-FRA movers land on
		// K-AMS).
		{code: "AMS", capacity: capLarge, servers: 4, policy: Absorb, mode: ServersShared, uplinks: 3},
		// K-LHR keeps one absorbing session while the other flaps away:
		// most of its catchment drains to K-AMS, but the VPs behind the
		// surviving session stay "stuck" to the overloaded site with only
		// occasional replies (§3.4.2 group 1).
		{code: "LHR", capacity: capMedium, servers: 3, policy: Absorb, mode: ServersShared, uplinks: 2, flappy: 1},
		{code: "FRA", capacity: capMedium, servers: 3, policy: Absorb, mode: ServersIsolate, uplinks: 2, flappy: 1, slow: true},
		{code: "MIA", capacity: capMedium, servers: 3, policy: Absorb, mode: ServersShared},
		{code: "VIE", capacity: capMedium, servers: 2, policy: Absorb, mode: ServersShared},
		{code: "LED", capacity: capMedium, servers: 2, policy: Absorb, mode: ServersShared},
		{code: "NRT", capacity: capSmall, servers: 3, policy: Absorb, mode: ServersShared, hot: 2, majorTransit: true},
	}
	mid := []string{"MIL", "ZRH", "WAW", "BNE", "PRG", "GVA"}
	for _, c := range mid {
		out = append(out, siteSpec{code: c, capacity: capSmall, servers: 2, policy: Absorb, mode: ServersShared})
	}
	small := []string{"ATH", "MKC", "RIX", "THR", "BUD", "KAE", "BEG", "HEL", "PLX", "OVB", "POZ", "ABO", "AVN", "BCN", "REY", "DOH", "RNO"}
	for _, c := range small {
		out = append(out, siteSpec{code: c, capacity: capTiny, servers: 1, local: true, policy: Absorb, mode: ServersShared})
	}
	return out
}

// genericSites fabricates a site list for letters whose exact site sets are
// not published in the paper, cycling through interconnection-dense cities.
func genericSites(n int, nGlobal int, policy Policy, rng *rand.Rand) []siteSpec {
	cities := geo.Cities()
	// Shuffle deterministically so different letters get different mixes.
	rng.Shuffle(len(cities), func(i, j int) { cities[i], cities[j] = cities[j], cities[i] })
	out := make([]siteSpec, 0, n)
	for i := 0; i < n; i++ {
		city := cities[i%len(cities)]
		spec := siteSpec{code: city.Code, policy: policy, mode: ServersShared}
		switch {
		case i < nGlobal/3+1:
			spec.capacity, spec.servers = capMedium, 3
		case i < nGlobal:
			spec.capacity, spec.servers = capSmall, 2
		default:
			spec.capacity, spec.servers, spec.local = capTiny, 1, true
		}
		out = append(out, spec)
	}
	return out
}

// RootDeployment builds the 13-letter deployment with the architecture of
// Table 2 (site counts follow the "observed" column; E and K use the exact
// site lists of Figure 6). The seed controls only the fabricated site lists
// of letters without published site sets. A site list naming a city
// outside the geo table yields an error wrapping geo.ErrUnknownCity.
func RootDeployment(seed int64) (*Deployment, error) {
	rng := rand.New(rand.NewSource(seed))
	var buildErr error
	build := func(letter byte, operator string, normal float64, rssac bool, specs []siteSpec) *Letter {
		l := &Letter{Letter: letter, Operator: operator, NormalQPS: normal, ReportsRSSAC: rssac}
		seen := map[string]int{}
		for _, sp := range specs {
			// Letters can have at most one site per city code in our
			// naming scheme; disambiguation would break CHAOS parsing.
			if seen[sp.code] > 0 {
				continue
			}
			seen[sp.code]++
			city, err := geo.LookupErr(sp.code)
			if err != nil {
				if buildErr == nil {
					buildErr = fmt.Errorf("anycast: letter %c site list: %w", letter, err)
				}
				continue
			}
			l.Sites = append(l.Sites, &Site{
				Letter: letter, Code: sp.code, City: city, Local: sp.local,
				CapacityQPS: sp.capacity, NumServers: sp.servers,
				Policy: sp.policy, ServerMode: sp.mode, HotServer: sp.hot,
				Uplinks: sp.uplinks, FlappyUplinks: sp.flappy,
				ShallowBuffers: sp.shallow, SlowRestore: sp.slow,
				MajorTransit: sp.majorTransit,
			})
		}
		return l
	}

	// A-Root: Verisign's DDoS-hardened deployment. The paper reports A
	// "continuing to serve all regular queries throughout" and measuring
	// essentially the whole 5 Mq/s flood (its RSSAC numbers anchor the
	// upper-bound estimate), so its five sites carry far more capacity
	// than anyone else's.
	const capVerisign = 1_150_000
	aSites := []siteSpec{
		{code: "IAD", capacity: capVerisign, servers: 6, policy: Absorb, mode: ServersShared, uplinks: 2},
		{code: "LGA", capacity: capVerisign, servers: 6, policy: Absorb, mode: ServersShared, uplinks: 2},
		{code: "FRA", capacity: capVerisign, servers: 4, policy: Absorb, mode: ServersShared},
		{code: "HKG", capacity: capVerisign, servers: 4, policy: Absorb, mode: ServersShared},
		{code: "LAX", capacity: capVerisign, servers: 4, policy: Absorb, mode: ServersShared},
	}
	// B-Root: unicast, one site on the US West coast. Its ingress drops
	// excess traffic at a shallow queue, so the probes that do succeed
	// keep near-normal RTTs (§3.2.1: B suffered the most loss but showed
	// little RTT change).
	bSites := []siteSpec{{code: "LAX", capacity: capSmall, servers: 3, policy: Absorb, mode: ServersShared, shallow: true}}
	cSites := []siteSpec{
		{code: "IAD", capacity: capMedium, servers: 2, policy: Absorb, mode: ServersShared},
		{code: "LGA", capacity: capMedium, servers: 2, policy: Absorb, mode: ServersShared},
		{code: "ORD", capacity: capSmall, servers: 2, policy: Absorb, mode: ServersShared},
		{code: "LAX", capacity: capSmall, servers: 2, policy: Absorb, mode: ServersShared},
		{code: "FRA", capacity: capMedium, servers: 2, policy: Absorb, mode: ServersShared},
		{code: "AMS", capacity: capMedium, servers: 2, policy: Absorb, mode: ServersShared},
		{code: "MAD", capacity: capSmall, servers: 2, policy: Absorb, mode: ServersShared},
		{code: "SIN", capacity: capSmall, servers: 2, policy: Absorb, mode: ServersShared},
	}
	// G-Root withdrew some sites under stress but never went fully dark:
	// Figure 4 shows its RTT jumping as catchments shifted to surviving
	// sites, so two sites absorb while the rest withdraw.
	gSites := []siteSpec{
		{code: "IAD", capacity: capSmall, servers: 2, policy: Absorb, mode: ServersShared},
		{code: "ORD", capacity: capSmall, servers: 2, policy: Withdraw, mode: ServersShared},
		{code: "DEN", capacity: capSmall, servers: 1, policy: Withdraw, mode: ServersShared},
		{code: "SEA", capacity: capSmall, servers: 1, policy: Withdraw, mode: ServersShared},
		{code: "FRA", capacity: capSmall, servers: 1, policy: Absorb, mode: ServersShared},
		{code: "NRT", capacity: capSmall, servers: 1, policy: Withdraw, mode: ServersShared},
	}
	hSites := []siteSpec{
		{code: "BWI", capacity: capSmall, servers: 2, policy: Withdraw, mode: ServersShared},
		{code: "SAN", capacity: capSmall, servers: 2, policy: Absorb, mode: ServersShared},
	}
	mSites := []siteSpec{
		{code: "NRT", capacity: capLarge, servers: 4, policy: Absorb, mode: ServersShared},
		{code: "CDG", capacity: capMedium, servers: 2, policy: Absorb, mode: ServersShared},
		{code: "PAO", capacity: capMedium, servers: 2, policy: Absorb, mode: ServersShared},
		{code: "ICN", capacity: capSmall, servers: 2, policy: Absorb, mode: ServersShared},
		{code: "MAD", capacity: capSmall, servers: 1, local: true, policy: Absorb, mode: ServersShared},
		{code: "SIN", capacity: capSmall, servers: 1, policy: Absorb, mode: ServersShared},
	}

	d := &Deployment{Letters: []*Letter{
		build('A', "Verisign", 40_000, true, aSites),
		build('B', "USC/ISI", 35_000, false, bSites),
		build('C', "Cogent", 40_000, false, cSites),
		// D-Root was not attacked but Figure 14 shows collateral damage at
		// D-FRA and D-SYD, so those sites are pinned into its list.
		build('D', "U. Maryland", 45_000, false, append([]siteSpec{
			{code: "FRA", capacity: capMedium, servers: 2, policy: Absorb, mode: ServersShared},
			{code: "SYD", capacity: capSmall, servers: 2, policy: Absorb, mode: ServersShared},
		}, genericSites(63, 16, Absorb, rng)...)),
		build('E', "NASA", 40_000, false, eRootSites()),
		build('F', "ISC", 55_000, false, genericSites(52, 5, Absorb, rng)),
		build('G', "U.S. DoD", 30_000, false, gSites),
		build('H', "ARL", 30_000, true, hSites),
		build('I', "Netnod", 45_000, false, genericSites(48, 48, Absorb, rng)),
		build('J', "Verisign", 50_000, true, genericSites(69, 66, Absorb, rng)),
		build('K', "RIPE", 40_000, true, kRootSites()),
		build('L', "ICANN", 60_000, true, genericSites(113, 113, Absorb, rng)),
		build('M', "WIDE", 40_000, false, mSites),
	}}
	if ub, ok := d.Letter('B'); ok {
		ub.Unicast = true
	}
	if h, ok := d.Letter('H'); ok {
		h.PrimaryBackup = true
	}
	if buildErr != nil {
		return nil, buildErr
	}
	return d, nil
}

// Place assigns every site a host AS located in (or nearest to) the site's
// city. Placement is deterministic for a given graph and seed: candidate
// host ASes are tier-2s in the same city, then same region, then any
// tier-2.
func (d *Deployment) Place(g *topo.Graph, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	// Index tier-2 ASes by city and region.
	byCity := map[string][]topo.ASN{}
	byRegion := map[geo.Region][]topo.ASN{}
	var all []topo.ASN
	for i := range g.ASes {
		a := &g.ASes[i]
		if a.Tier != topo.Tier2 {
			continue
		}
		byCity[a.City.Code] = append(byCity[a.City.Code], topo.ASN(i))
		byRegion[a.City.Region] = append(byRegion[a.City.Region], topo.ASN(i))
		all = append(all, topo.ASN(i))
	}
	if len(all) == 0 {
		return fmt.Errorf("anycast: topology has no tier-2 ASes to host sites")
	}
	// Large sites sit on top-layer transit (one hop from the tier-1
	// core); smaller sites are hosted by regional ISPs deeper in the
	// hierarchy, whose announcements carry longer AS paths and therefore
	// attract regional — not global — catchments.
	layerFilter := func(cands []topo.ASN, wantTop bool) []topo.ASN {
		var out []topo.ASN
		for _, a := range cands {
			if g.HasTier1Provider(a) == wantTop {
				out = append(out, a)
			}
		}
		return out
	}
	for _, l := range d.Letters {
		// One letter never announces two different sites from the same
		// host AS — a host's single best route would shadow one of them
		// and make forwarding disagree with the announced catchment.
		used := map[topo.ASN]bool{}
		for _, s := range l.Sites {
			wantTop := s.CapacityQPS >= 150_000 || s.MajorTransit
			// Candidate pools from most to least preferred; later pools
			// only matter when earlier ones are exhausted by the
			// one-site-per-host rule.
			pools := [][]topo.ASN{
				layerFilter(byCity[s.City.Code], wantTop),
				byCity[s.City.Code],
				layerFilter(byRegion[s.City.Region], wantTop),
				byRegion[s.City.Region],
				all,
			}
			n := s.EffectiveUplinks()
			s.Hosts = make([]topo.ASN, n)
			// Multi-uplink (major) sites buy transit from the
			// best-connected ISPs available; single-uplink sites pick
			// randomly among the pool.
			major := n >= 2
			for u := 0; u < n; u++ {
				var pick topo.ASN
				found := false
				for _, pool := range pools {
					if len(pool) == 0 {
						continue
					}
					ordered := pool
					if major {
						ordered = append([]topo.ASN(nil), pool...)
						sort.Slice(ordered, func(a, b int) bool {
							da, db := g.AS(ordered[a]).Degree(), g.AS(ordered[b]).Degree()
							if da != db {
								return da > db
							}
							return ordered[a] < ordered[b]
						})
					}
					if !found {
						// Default even if everything is used: stay in
						// the best non-empty pool.
						if major {
							pick = ordered[u%len(ordered)]
						} else {
							pick = ordered[(rng.Intn(len(ordered))+u)%len(ordered)]
						}
						found = true
					}
					base := 0
					if !major {
						base = rng.Intn(len(ordered))
					}
					fresh := false
					for off := 0; off < len(ordered); off++ {
						cand := ordered[(base+u+off)%len(ordered)]
						if !used[cand] {
							pick = cand
							fresh = true
							break
						}
					}
					if fresh {
						break
					}
				}
				used[pick] = true
				s.Hosts[u] = pick
			}
			s.Host = s.Hosts[0]
		}
	}
	return nil
}

// Validate checks deployment invariants: unique site codes per letter,
// positive capacities and server counts, and (after Place) assigned hosts.
func (d *Deployment) Validate(placed bool) error {
	letters := map[byte]bool{}
	for _, l := range d.Letters {
		if letters[l.Letter] {
			return fmt.Errorf("anycast: duplicate letter %c", l.Letter)
		}
		letters[l.Letter] = true
		if len(l.Sites) == 0 {
			return fmt.Errorf("anycast: letter %c has no sites", l.Letter)
		}
		codes := map[string]bool{}
		for _, s := range l.Sites {
			if codes[s.Code] {
				return fmt.Errorf("anycast: letter %c has duplicate site %s", l.Letter, s.Code)
			}
			codes[s.Code] = true
			if s.CapacityQPS <= 0 {
				return fmt.Errorf("anycast: site %s has capacity %v", s.Name(), s.CapacityQPS)
			}
			if s.NumServers < 1 {
				return fmt.Errorf("anycast: site %s has %d servers", s.Name(), s.NumServers)
			}
			if s.HotServer > s.NumServers {
				return fmt.Errorf("anycast: site %s hot server %d > %d servers", s.Name(), s.HotServer, s.NumServers)
			}
			if s.FlappyUplinks > s.EffectiveUplinks() {
				return fmt.Errorf("anycast: site %s has %d flappy of %d uplinks", s.Name(), s.FlappyUplinks, s.EffectiveUplinks())
			}
			if placed && s.Host == 0 && s.Letter != 'A' {
				// Host 0 is a valid ASN but letters are placed on
				// tier-2s (ASN >= Tier1 count), so 0 means unplaced.
				return fmt.Errorf("anycast: site %s not placed", s.Name())
			}
		}
	}
	return nil
}

// SortedLetters returns letter bytes present in the deployment, in order.
func (d *Deployment) SortedLetters() []byte {
	out := make([]byte, 0, len(d.Letters))
	for _, l := range d.Letters {
		out = append(out, l.Letter)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
