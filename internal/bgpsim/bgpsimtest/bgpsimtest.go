// Package bgpsimtest holds the original routing computation as a reference
// implementation for equivalence testing. Compute is the map-based
// synchronous path-vector sweep bgpsim started from: every round, every AS
// re-selects its best route from its own origins and its neighbors'
// previous-round routes, until nothing changes; ASes left without a route
// then resolve default routes toward their providers. Its route preference
// and tie-break are copied here rather than imported, so the reference
// stands alone.
//
// Tests pin bgpsim.Computer's three-pass solver to this reference at two
// scales: internal/bgpsim compares full tables (every Route field) on
// generated graphs under flap sequences, and internal/core reruns the whole
// engine with every routing epoch solved here and the table memo off.
//
// Nothing in this package is used by production code.
package bgpsimtest

import (
	"github.com/rootevent/anycastddos/internal/bgpsim"
	"github.com/rootevent/anycastddos/internal/topo"
)

// Compute returns the routing table for the origins' announcements; active
// reports whether each origins entry is announced, nil meaning all are. The
// result must equal bgpsim.Compute's, field for field.
func Compute(g *topo.Graph, origins []bgpsim.Origin, active []bool) *bgpsim.Table {
	n := g.N()
	cur := make([]bgpsim.Route, n)
	next := make([]bgpsim.Route, n)
	for i := range cur {
		cur[i] = bgpsim.Route{Site: bgpsim.NoSite}
		next[i] = bgpsim.Route{Site: bgpsim.NoSite}
	}

	// Per-AS origin seeds and the NO_EXPORT routes local origins send to the
	// host's customers (both constant across rounds).
	seeds := make(map[topo.ASN][]bgpsim.Route)
	localAdverts := make(map[topo.ASN][]bgpsim.Route)
	for i, o := range origins {
		if active != nil && !active[i] {
			continue
		}
		seeds[o.Host] = append(seeds[o.Host], bgpsim.Route{
			Site: o.Site, Class: bgpsim.FromSelf, NextHop: o.Host, Uplink: int32(i), NoExport: o.Local,
		})
		if o.Local {
			for _, c := range g.AS(o.Host).Customers {
				localAdverts[c] = append(localAdverts[c], bgpsim.Route{
					Site: o.Site, PathLen: 1, Class: bgpsim.FromProvider, NextHop: o.Host, Uplink: int32(i), NoExport: true,
				})
			}
		}
	}

	const maxRounds = 128
	for round := 0; round < maxRounds; round++ {
		changed := false
		for asn := 0; asn < n; asn++ {
			a := topo.ASN(asn)
			best := bgpsim.Route{Site: bgpsim.NoSite}
			consider := func(r bgpsim.Route) {
				if better(a, r, best) {
					best = r
				}
			}
			for _, r := range seeds[a] {
				consider(r)
			}
			for _, r := range localAdverts[a] {
				consider(r)
			}
			node := g.AS(a)
			// Valley-free export rules, from the receiver's perspective: a
			// customer or peer advertises only its self/customer routes; a
			// provider advertises its full (non-NO_EXPORT) table downward.
			for _, c := range node.Customers {
				if r := cur[c]; r.Valid() && !r.NoExport && r.Class <= bgpsim.FromCustomer {
					consider(bgpsim.Route{Site: r.Site, PathLen: nextLen(r.PathLen), Class: bgpsim.FromCustomer, NextHop: c, Uplink: r.Uplink})
				}
			}
			for _, p := range node.Peers {
				if r := cur[p]; r.Valid() && !r.NoExport && r.Class <= bgpsim.FromCustomer {
					consider(bgpsim.Route{Site: r.Site, PathLen: nextLen(r.PathLen), Class: bgpsim.FromPeer, NextHop: p, Uplink: r.Uplink})
				}
			}
			for _, p := range node.Providers {
				if r := cur[p]; r.Valid() && !r.NoExport {
					consider(bgpsim.Route{Site: r.Site, PathLen: nextLen(r.PathLen), Class: bgpsim.FromProvider, NextHop: p, Uplink: r.Uplink})
				}
			}
			next[asn] = best
			changed = changed || best != cur[asn]
		}
		cur, next = next, cur
		if !changed {
			break
		}
	}
	resolveDefaults(g, cur)
	return &bgpsim.Table{Routes: cur}
}

// resolveDefaults gives every AS without a BGP route a default route to
// the provider with the lowest per-AS hash among those that have a route
// (BGP or default) — resolved recursively up the provider hierarchy.
func resolveDefaults(g *topo.Graph, routes []bgpsim.Route) {
	const resolving, done = 1, 2 // zero: not visited yet
	state := make([]uint8, len(routes))
	var fill func(asn topo.ASN) bgpsim.Route
	fill = func(asn topo.ASN) bgpsim.Route {
		if state[asn] == done || routes[asn].Valid() {
			state[asn] = done
			return routes[asn]
		}
		if state[asn] == resolving {
			return bgpsim.Route{Site: bgpsim.NoSite} // provider cycle
		}
		state[asn] = resolving
		best := bgpsim.Route{Site: bgpsim.NoSite}
		bestRank := ^uint64(0)
		for _, p := range g.AS(asn).Providers {
			if r := fill(p); r.Valid() {
				if rank := mix64(uint64(asn)<<20 ^ uint64(p)); rank < bestRank {
					bestRank = rank
					best = bgpsim.Route{
						Site: r.Site, PathLen: nextLen(r.PathLen), Class: bgpsim.FromProvider,
						NextHop: p, ViaDefault: true, Uplink: r.Uplink, NoExport: true,
					}
				}
			}
		}
		routes[asn] = best
		state[asn] = done
		return best
	}
	for asn := range routes {
		fill(topo.ASN(asn))
	}
}

// better reports whether candidate a beats incumbent b at the given AS:
// class first, then path length, then the per-(AS, uplink) tie rank, then
// the uplink index; b survives an exact tie.
func better(asn topo.ASN, a, b bgpsim.Route) bool {
	switch {
	case !b.Valid():
		return a.Valid()
	case !a.Valid():
		return false
	case a.Class != b.Class:
		return a.Class < b.Class
	case a.PathLen != b.PathLen:
		return a.PathLen < b.PathLen
	case a.Uplink == b.Uplink:
		return false
	}
	ra, rb := tieRank(asn, a.Uplink), tieRank(asn, b.Uplink)
	if ra != rb {
		return ra < rb
	}
	return a.Uplink < b.Uplink
}

func tieRank(asn topo.ASN, uplink int32) uint64 {
	return mix64(uint64(asn)<<20 ^ uint64(uint32(uplink))*0x9E3779B9)
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// nextLen increments a path length, saturating at 255.
func nextLen(l uint8) uint8 {
	if l == 255 {
		return 255
	}
	return l + 1
}
