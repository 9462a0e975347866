// Package bgpsim computes anycast catchments by propagating BGP routes over
// an AS-level topology with Gao-Rexford (valley-free) policies.
//
// An anycast service announces one prefix from several sites, each homed in
// a host AS. Routing then associates every AS with one site — the site's
// catchment (§2.1 of the paper). Sites can be *global* (announced normally)
// or *local* (announced with NO_EXPORT-style scoping so only the host's
// immediate neighbors learn the route, as several root letters do for their
// local sites, Table 2). Withdrawing a site's announcement shrinks its
// catchment to nothing and shifts its ASes to other sites — the "waterbed"
// behaviour the paper observes under stress (§2.2, §3.4).
//
// Route selection follows standard policy preferences: customer-learned
// routes over peer-learned over provider-learned, then shorter AS paths,
// then a deterministic per-AS tie-break (a hash standing in for the IGP
// costs and router IDs real networks break ties on, so tied sites split
// the population instead of one site absorbing every tie).
package bgpsim

import (
	"fmt"

	"github.com/rootevent/anycastddos/internal/topo"
)

// RelClass records how an AS learned a route, in preference order.
type RelClass uint8

// Route classes, ordered from most to least preferred.
const (
	FromSelf     RelClass = iota // the AS hosts the site
	FromCustomer                 // learned from a customer
	FromPeer                     // learned from a settlement-free peer
	FromProvider                 // learned from a provider
)

// String returns the class name.
func (c RelClass) String() string {
	switch c {
	case FromSelf:
		return "self"
	case FromCustomer:
		return "customer"
	case FromPeer:
		return "peer"
	case FromProvider:
		return "provider"
	default:
		return fmt.Sprintf("RelClass(%d)", uint8(c))
	}
}

// NoSite marks the absence of a route.
const NoSite = -1

// Origin is one anycast site announcement.
type Origin struct {
	Site  int      // caller-defined site identifier (>= 0)
	Host  topo.ASN // AS hosting the site
	Local bool     // NO_EXPORT scoping: only the host's direct neighbors learn the route
}

// Route is an AS's best path to the anycast prefix.
type Route struct {
	Site    int      // chosen site, or NoSite
	PathLen uint8    // AS-path length from the origin
	Class   RelClass // how the route was learned
	// ViaDefault marks traffic that reaches the prefix with no BGP route
	// of its own: the AS simply defaults packets to a transit provider.
	// This is how single-homed networks behind an ISP holding only a
	// NO_EXPORT route still reach the service in practice.
	ViaDefault bool
	NoExport   bool     // route must not be re-advertised
	NextHop    topo.ASN // neighbor the route was learned from (self for origins)
	Uplink     int32    // index of the announcing entry in the origins slice
}

// Valid reports whether the route reaches any site.
func (r Route) Valid() bool { return r.Site != NoSite }

// nextLen increments a path length, saturating instead of wrapping so that
// pathological graphs cannot cycle through uint8 overflow.
//
//repolint:hot
func nextLen(l uint8) uint8 {
	if l == 255 {
		return 255
	}
	return l + 1
}

// mix64 is the splitmix64 finalizer, used for per-AS tie ranks.
//
//repolint:hot
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// tieRank orders equally-preferred routes at one AS. Real routers break
// class/path-length ties on IGP cost and router IDs, which vary per
// network; a per-(AS, uplink) hash reproduces that: each AS has its own
// stable preference among tied announcements, so tied sites split the
// population — and a site announced through k uplinks wins a tie against a
// single-uplink site with probability k/(k+1), the structural advantage of
// heavily meshed IX sites like K-AMS.
//
//repolint:hot
func tieRank(asn topo.ASN, uplink int32) uint64 {
	return mix64(uint64(asn)<<20 ^ uint64(uint32(uplink))*0x9E3779B9)
}

// tieBreak reports whether route a beats an equally-preferred route b
// (same class, same path length) at the given AS. Two routes announced
// through one uplink keep the incumbent b.
//
//repolint:hot
func tieBreak(asn topo.ASN, a, b *Route) bool {
	if a.Uplink == b.Uplink {
		return false
	}
	ra, rb := tieRank(asn, a.Uplink), tieRank(asn, b.Uplink)
	if ra != rb {
		return ra < rb
	}
	return a.Uplink < b.Uplink
}

// Table holds every AS's best route for one anycast prefix.
type Table struct {
	Routes []Route // indexed by ASN
}

// SiteOf returns the site serving the given AS, or NoSite.
//
//repolint:hot
func (t *Table) SiteOf(a topo.ASN) int { return t.Routes[a].Site }

// CatchmentSizes returns, for each site index < nSites, the number of ASes
// routed to it.
func (t *Table) CatchmentSizes(nSites int) []int {
	return t.CatchmentSizesInto(make([]int, nSites))
}

// CatchmentSizesInto is CatchmentSizes with a caller-supplied buffer: sizes
// is zeroed, filled per site index < len(sizes), and returned, so analysis
// loops can reuse one buffer across epochs.
//
//repolint:hot
func (t *Table) CatchmentSizesInto(sizes []int) []int {
	for i := range sizes {
		sizes[i] = 0
	}
	for _, r := range t.Routes {
		if r.Site >= 0 && r.Site < len(sizes) {
			sizes[r.Site]++
		}
	}
	return sizes
}

// Compute propagates the origins' announcements across the graph and
// returns the resulting routing table. active reports whether each origins
// entry is currently announced; nil means all are active.
//
// The table is forwarding-consistent: every AS's NextHop holds the route
// it advertised, so Trace and the selections agree.
//
// It is NewComputer(g).Compute(origins, active). Callers routing one graph
// more than once should hold the Computer: building its view of the graph
// is the part of this call that does not depend on the announcements.
func Compute(g *topo.Graph, origins []Origin, active []bool) *Table {
	return NewComputer(g).Compute(origins, active)
}

// Change records one AS whose best site changed between two tables.
type Change struct {
	ASN  topo.ASN
	From int // previous site or NoSite
	To   int // new site or NoSite
}

// Diff returns the set of ASes whose selected site differs between two
// tables. The result drives both site-flip accounting and the BGPmon
// collector view.
func Diff(old, new *Table) []Change {
	return AppendDiff(nil, old, new)
}

// AppendDiff is Diff with a caller-supplied buffer: changes are appended to
// dst (which may be nil) and the extended slice returned, so per-epoch
// diffing inside the engine reuses one buffer instead of allocating per
// call.
func AppendDiff(dst []Change, old, new *Table) []Change {
	for i := range new.Routes {
		if old.Routes[i].Site != new.Routes[i].Site {
			dst = append(dst, Change{ASN: topo.ASN(i), From: old.Routes[i].Site, To: new.Routes[i].Site})
		}
	}
	return dst
}

// Trace reconstructs the AS-level forwarding path from an AS toward the
// anycast prefix by following NextHop links — the simulator's analog of a
// traceroute, used to cross-validate CHAOS-based catchment mapping the way
// Fan et al. did for the paper's methodology (§2.1). It returns the
// traversed ASes (starting at from) and the site reached, or NoSite when
// the AS has no route or forwarding is inconsistent (a loop or a hop
// without a route).
func (t *Table) Trace(from topo.ASN, maxHops int) (path []topo.ASN, site int) {
	if maxHops <= 0 {
		maxHops = 64
	}
	seen := make(map[topo.ASN]bool, 8)
	cur := from
	for hops := 0; hops <= maxHops; hops++ {
		path = append(path, cur)
		r := t.Routes[cur]
		if !r.Valid() {
			return path, NoSite
		}
		if r.Class == FromSelf || r.NextHop == cur {
			return path, r.Site
		}
		if seen[cur] {
			return path, NoSite // forwarding loop
		}
		seen[cur] = true
		cur = r.NextHop
	}
	return path, NoSite
}
