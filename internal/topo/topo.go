// Package topo generates AS-level Internet topologies for the anycast
// routing simulator.
//
// The generator builds a three-tier hierarchy in the style of measured AS
// graphs: a small clique of tier-1 transit-free networks, a layer of
// regional transit providers, and a large population of stub (edge) ASes.
// Links carry Gao-Rexford business relationships (customer-provider or
// peer-peer), which the bgpsim package uses for valley-free route
// propagation. Every AS is placed in a city (internal/geo) so that
// catchments translate into round-trip times.
package topo

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/rootevent/anycastddos/internal/geo"
)

// ASN identifies an autonomous system. ASNs are dense indices 0..N-1 in
// generated graphs, which keeps routing tables as flat slices.
type ASN int32

// Tier classifies an AS's role in the hierarchy.
type Tier uint8

// Tiers.
const (
	Tier1 Tier = iota // transit-free core, full peer mesh
	Tier2             // regional transit provider
	Stub              // edge network (eyeballs, enterprises, hosters)
)

// String returns the tier name.
func (t Tier) String() string {
	switch t {
	case Tier1:
		return "tier1"
	case Tier2:
		return "tier2"
	case Stub:
		return "stub"
	default:
		return fmt.Sprintf("Tier(%d)", uint8(t))
	}
}

// AS is one autonomous system in the graph.
type AS struct {
	ASN       ASN
	Tier      Tier
	City      geo.City
	Providers []ASN // links where this AS is the customer
	Customers []ASN // links where this AS is the provider
	Peers     []ASN // settlement-free peerings
}

// Degree returns the total number of relationships of the AS.
func (a *AS) Degree() int { return len(a.Providers) + len(a.Customers) + len(a.Peers) }

// Graph is an AS-level topology.
type Graph struct {
	ASes []AS
}

// N returns the number of ASes.
func (g *Graph) N() int { return len(g.ASes) }

// AS returns the AS with the given number.
func (g *Graph) AS(a ASN) *AS { return &g.ASes[a] }

// Config controls topology generation.
type Config struct {
	Tier1s int // size of the transit-free clique
	Tier2s int // number of regional transit providers
	Stubs  int // number of edge ASes
	Seed   int64

	// StubRegionWeights biases where stub ASes (and hence clients and
	// vantage points) are located. Nil selects DefaultRegionWeights.
	StubRegionWeights map[geo.Region]float64

	// IXWeights marks internet-exchange hub cities: a tier-2 AS in one of
	// these cities peers with each other same-region tier-2 with the
	// given probability, on top of the base peering. This reproduces the
	// peering density of the big exchanges (AMS-IX, LINX, DE-CIX) that
	// makes sites hosted there dominate tie-broken anycast catchments.
	// Nil selects DefaultIXWeights.
	IXWeights map[string]float64
}

// DefaultIXWeights models the 2015 European exchange landscape with
// Amsterdam densest: nearly every European network peers at AMS-IX, which
// is why withdrawn K-Root catchments drained overwhelmingly to K-AMS
// (Figure 10 of the paper).
var DefaultIXWeights = map[string]float64{
	"AMS": 0.85,
	"LHR": 0.30,
	"FRA": 0.30,
	"IAD": 0.25,
	// Asian exchanges (JPNAP/JPIX, Equinix SG/HK): regional peering that
	// keeps Asian catchments on Asian sites instead of draining to
	// Europe.
	"NRT": 0.50,
	"SIN": 0.25,
	"HKG": 0.25,
}

// DefaultRegionWeights approximates the regional distribution of networks
// on the Internet around 2015, with Europe and North America dominating.
var DefaultRegionWeights = map[geo.Region]float64{
	geo.Europe:       0.38,
	geo.NorthAmerica: 0.28,
	geo.Asia:         0.18,
	geo.SouthAmerica: 0.06,
	geo.Oceania:      0.04,
	geo.MiddleEast:   0.03,
	geo.Africa:       0.03,
}

// DefaultConfig is sized so full-event simulations stay fast while leaving
// room for per-site catchment diversity: ~3000 ASes.
func DefaultConfig(seed int64) Config {
	return Config{Tier1s: 12, Tier2s: 240, Stubs: 2750, Seed: seed}
}

// Generate builds a topology from the configuration. Generation is fully
// deterministic for a given Config.
func Generate(cfg Config) (*Graph, error) {
	if cfg.Tier1s < 2 {
		return nil, fmt.Errorf("topo: need >= 2 tier-1 ASes, got %d", cfg.Tier1s)
	}
	if cfg.Tier2s < 1 || cfg.Stubs < 1 {
		return nil, fmt.Errorf("topo: need >= 1 tier-2 and stub AS")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	weights := cfg.StubRegionWeights
	if weights == nil {
		weights = DefaultRegionWeights
	}

	n := cfg.Tier1s + cfg.Tier2s + cfg.Stubs
	g := &Graph{ASes: make([]AS, n)}
	for i := range g.ASes {
		g.ASes[i].ASN = ASN(i)
	}

	// Tier-1s: place in the largest interconnection cities, full peer mesh.
	t1Cities := []string{"AMS", "LHR", "FRA", "IAD", "LGA", "ORD", "PAO", "NRT", "SIN", "CDG", "SEA", "HKG", "MIA", "DFW"}
	for i := 0; i < cfg.Tier1s; i++ {
		a := &g.ASes[i]
		a.Tier = Tier1
		a.City = geo.MustLookup(t1Cities[i%len(t1Cities)])
		for j := 0; j < cfg.Tier1s; j++ {
			if j != i {
				a.Peers = append(a.Peers, ASN(j))
			}
		}
	}

	// Pre-compute region -> city lists once.
	regionCities := make(map[geo.Region][]geo.City)
	for r := geo.Region(0); r < 7; r++ {
		regionCities[r] = geo.CitiesIn(r)
	}
	pickRegion := func() geo.Region {
		x := rng.Float64()
		var cum float64
		for r := geo.Region(0); r < 7; r++ {
			cum += weights[r]
			if x < cum {
				return r
			}
		}
		return geo.Europe
	}
	pickCity := func(r geo.Region) geo.City {
		cs := regionCities[r]
		if len(cs) == 0 {
			cs = regionCities[geo.Europe]
		}
		return cs[rng.Intn(len(cs))]
	}

	// Tier-2s: regional transit. Each gets 2-3 tier-1 providers and a few
	// same-region tier-2 peers. Tier-2s in IX hub cities are far more
	// heavily multihomed — an AMS-IX network buys transit from almost
	// every tier-1, which is what lets services homed there win
	// customer-route preference everywhere.
	ixWeights := cfg.IXWeights
	if ixWeights == nil {
		ixWeights = DefaultIXWeights
	}
	// Guarantee IX-hub presence: the first tier-2s are pinned to the hub
	// cities (three per hub) so every topology, however small, has
	// exchange-dense networks where the big anycast sites live.
	hubs := make([]string, 0, len(ixWeights))
	for code := range ixWeights {
		hubs = append(hubs, code)
	}
	sort.Slice(hubs, func(i, j int) bool {
		if ixWeights[hubs[i]] != ixWeights[hubs[j]] {
			return ixWeights[hubs[i]] > ixWeights[hubs[j]]
		}
		return hubs[i] < hubs[j]
	})
	t2Start := cfg.Tier1s
	for i := t2Start; i < t2Start+cfg.Tier2s; i++ {
		a := &g.ASes[i]
		a.Tier = Tier2
		pin := i - t2Start
		if pin < 3*len(hubs) {
			// Hub codes come from cfg.IXWeights, i.e. caller input.
			city, err := geo.LookupErr(hubs[pin%len(hubs)])
			if err != nil {
				return nil, fmt.Errorf("topo: IX hub: %w", err)
			}
			a.City = city
		} else {
			a.City = pickCity(pickRegion())
		}
		// Roughly half the ordinary tier-2s are second-layer transit:
		// they buy from other (earlier) tier-2s rather than tier-1s,
		// giving the graph the AS-path depth of the real Internet. Hub
		// networks always connect straight to the core.
		_, isHub := ixWeights[a.City.Code]
		if !isHub && pin >= 3*len(hubs) && i > t2Start+4 && rng.Float64() < 0.5 {
			nProv := 1 + rng.Intn(2)
			for p := 0; p < nProv; p++ {
				j := t2Start + rng.Intn(i-t2Start)
				if !related(g, ASN(j), ASN(i)) {
					link(g, ASN(j), ASN(i))
				}
			}
			if len(a.Providers) > 0 {
				continue
			}
			// Fall through to tier-1 transit when unlucky with picks.
		}
		nProv := 2 + rng.Intn(2)
		if w := ixWeights[a.City.Code]; w > 0 {
			nProv += int(w * float64(cfg.Tier1s))
		}
		if nProv > cfg.Tier1s {
			nProv = cfg.Tier1s
		}
		for _, p := range rng.Perm(cfg.Tier1s)[:nProv] {
			link(g, ASN(p), ASN(i))
		}
	}
	// Tier-2 peering: connect each tier-2 to up to 3 random earlier
	// tier-2s in the same region (keeps the mesh valley-free-interesting).
	for i := t2Start + 1; i < t2Start+cfg.Tier2s; i++ {
		a := &g.ASes[i]
		tried := 0
		peered := 0
		for tried < 12 && peered < 3 {
			j := t2Start + rng.Intn(i-t2Start)
			tried++
			b := &g.ASes[j]
			if b.City.Region == a.City.Region && !related(g, ASN(i), ASN(j)) {
				a.Peers = append(a.Peers, ASN(j))
				b.Peers = append(b.Peers, ASN(i))
				peered++
			}
		}
	}

	// IX hub peering: tier-2s in exchange cities peer densely with their
	// region.
	for i := t2Start; i < t2Start+cfg.Tier2s; i++ {
		p, isHub := ixWeights[g.ASes[i].City.Code]
		if !isHub || p <= 0 {
			continue
		}
		for j := t2Start; j < t2Start+cfg.Tier2s; j++ {
			if j == i || g.ASes[j].City.Region != g.ASes[i].City.Region {
				continue
			}
			if rng.Float64() < p && !related(g, ASN(i), ASN(j)) {
				g.ASes[i].Peers = append(g.ASes[i].Peers, ASN(j))
				g.ASes[j].Peers = append(g.ASes[j].Peers, ASN(i))
			}
		}
	}

	// Stubs: each picks 1-2 providers, preferring same-region tier-2s.
	stubStart := t2Start + cfg.Tier2s
	// Index tier-2s by region for provider selection.
	t2ByRegion := make(map[geo.Region][]ASN)
	for i := t2Start; i < stubStart; i++ {
		t2ByRegion[g.ASes[i].City.Region] = append(t2ByRegion[g.ASes[i].City.Region], ASN(i))
	}
	for i := stubStart; i < n; i++ {
		a := &g.ASes[i]
		a.Tier = Stub
		region := pickRegion()
		a.City = pickCity(region)
		candidates := t2ByRegion[region]
		if len(candidates) == 0 {
			candidates = t2ByRegion[geo.Europe]
		}
		nProv := 1
		if rng.Float64() < 0.35 { // ~1/3 of stubs are multihomed
			nProv = 2
		}
		if nProv > len(candidates) {
			nProv = len(candidates)
		}
		seen := map[ASN]bool{}
		for len(seen) < nProv {
			p := candidates[rng.Intn(len(candidates))]
			if !seen[p] {
				seen[p] = true
				link(g, p, ASN(i))
			}
		}
	}
	return g, nil
}

// link records a provider->customer relationship.
func link(g *Graph, provider, customer ASN) {
	g.ASes[provider].Customers = append(g.ASes[provider].Customers, customer)
	g.ASes[customer].Providers = append(g.ASes[customer].Providers, provider)
}

// related reports whether a and b already share any relationship.
func related(g *Graph, a, b ASN) bool {
	for _, x := range g.ASes[a].Providers {
		if x == b {
			return true
		}
	}
	for _, x := range g.ASes[a].Customers {
		if x == b {
			return true
		}
	}
	for _, x := range g.ASes[a].Peers {
		if x == b {
			return true
		}
	}
	return false
}

// HasTier1Provider reports whether the AS buys transit directly from a
// tier-1 — i.e., sits in the top transit layer. Anycast sites hosted on
// such networks are one AS hop from the core and win path-length
// comparisons against sites homed deeper in the hierarchy.
func (g *Graph) HasTier1Provider(a ASN) bool {
	for _, p := range g.ASes[a].Providers {
		if g.ASes[p].Tier == Tier1 {
			return true
		}
	}
	return false
}

// StubASNs returns the ASNs of all stub ASes.
func (g *Graph) StubASNs() []ASN {
	var out []ASN
	for i := range g.ASes {
		if g.ASes[i].Tier == Stub {
			out = append(out, ASN(i))
		}
	}
	return out
}

// Validate checks structural invariants: symmetric relationships, no
// self-links, no duplicate links, and that every non-tier-1 AS has at least
// one provider (so the graph is connected through the hierarchy).
func (g *Graph) Validate() error {
	for i := range g.ASes {
		a := &g.ASes[i]
		seen := map[ASN]int{}
		for _, p := range a.Providers {
			if p == a.ASN {
				return fmt.Errorf("topo: AS%d is its own provider", i)
			}
			seen[p]++
			if !contains(g.ASes[p].Customers, a.ASN) {
				return fmt.Errorf("topo: AS%d lists provider AS%d without back link", i, p)
			}
		}
		for _, c := range a.Customers {
			if c == a.ASN {
				return fmt.Errorf("topo: AS%d is its own customer", i)
			}
			seen[c]++
			if !contains(g.ASes[c].Providers, a.ASN) {
				return fmt.Errorf("topo: AS%d lists customer AS%d without back link", i, c)
			}
		}
		for _, p := range a.Peers {
			if p == a.ASN {
				return fmt.Errorf("topo: AS%d peers with itself", i)
			}
			seen[p]++
			if !contains(g.ASes[p].Peers, a.ASN) {
				return fmt.Errorf("topo: AS%d lists peer AS%d without back link", i, p)
			}
		}
		for other, cnt := range seen {
			if cnt > 1 {
				return fmt.Errorf("topo: AS%d has %d relationships with AS%d", i, cnt, other)
			}
		}
		if a.Tier != Tier1 && len(a.Providers) == 0 {
			return fmt.Errorf("topo: non-tier-1 AS%d has no provider", i)
		}
	}
	return nil
}

func contains(xs []ASN, v ASN) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
