package bgpsim

import (
	"github.com/rootevent/anycastddos/internal/topo"
)

// Computer is an immutable view of one graph that solves its routing
// tables. It holds no state between Compute calls, so one Computer may be
// shared by any number of goroutines routing different origin sets over
// the same graph; the graph must not be mutated while it is in use.
//
// Compute settles the route classes one after another instead of iterating
// a path-vector fixpoint: customers first, each AS's self/customer route
// (which depends only on the customers below it); then peer routes, from
// peers' final self/customer routes; then, providers first, provider routes
// and defaults, from providers' final routes. Gao-Rexford class preference
// makes the stable solution unique, so the passes reach it exactly. Within
// a class candidates are seen in a fixed order — own origins, adverts, then
// neighbors in adjacency-list order — and the incumbent survives an exact
// tie, so NextHop and Uplink are deterministic too (DESIGN.md §12).
//
// The provider→customer relation must be acyclic, as topo.Generate
// guarantees. On a graph with a provider cycle Compute still returns a
// deterministic table, but not necessarily a stable routing state.
type Computer struct {
	n int
	// down lists the ASes that have providers, every provider before its
	// customers; up lists the ASes that have customers, every customer
	// before its providers; peered lists the ASes that have peers.
	down, up, peered []topo.ASN
	// cust, peer and prov are the graph's adjacency lists in CSR form.
	cust, peer, prov csr
}

// csr is one adjacency relation in compressed sparse row form: AS a's
// neighbors are adj[off[a]:off[a+1]], in the graph's list order.
type csr struct {
	off []int32
	adj []topo.ASN
}

// push appends the next AS's neighbors.
func (c *csr) push(nb []topo.ASN) {
	c.adj = append(c.adj, nb...)
	c.off = append(c.off, int32(len(c.adj)))
}

// of returns a's neighbors.
//
//repolint:hot
func (c *csr) of(a topo.ASN) []topo.ASN { return c.adj[c.off[a]:c.off[a+1]] }

// NewComputer builds the routing view of g.
func NewComputer(g *topo.Graph) *Computer {
	n := g.N()
	var nCust, nPeer, nProv int
	for i := range g.ASes {
		a := &g.ASes[i]
		nCust, nPeer, nProv = nCust+len(a.Customers), nPeer+len(a.Peers), nProv+len(a.Providers)
	}
	c := &Computer{n: n}
	c.cust = csr{off: make([]int32, 1, n+1), adj: make([]topo.ASN, 0, nCust)}
	c.peer = csr{off: make([]int32, 1, n+1), adj: make([]topo.ASN, 0, nPeer)}
	c.prov = csr{off: make([]int32, 1, n+1), adj: make([]topo.ASN, 0, nProv)}
	for i := range g.ASes {
		a := &g.ASes[i]
		c.cust.push(a.Customers)
		c.peer.push(a.Peers)
		c.prov.push(a.Providers)
		if len(a.Peers) > 0 {
			c.peered = append(c.peered, topo.ASN(i))
		}
	}
	order := c.providerOrder()
	c.down = make([]topo.ASN, 0, n)
	for _, a := range order {
		if len(c.prov.of(a)) > 0 {
			c.down = append(c.down, a)
		}
	}
	for i := len(order) - 1; i >= 0; i-- {
		if a := order[i]; len(c.cust.of(a)) > 0 {
			c.up = append(c.up, a)
		}
	}
	return c
}

// providerOrder returns every ASN with each provider before its customers,
// by Kahn's algorithm. The passes need only some such order, not a
// particular one. ASes it cannot order (those on or below a provider
// cycle) follow in ascending ASN.
func (c *Computer) providerOrder() []topo.ASN {
	order := make([]topo.ASN, 0, c.n)
	pending := make([]int, c.n) // providers not yet ordered
	for a := range pending {
		if pending[a] = len(c.prov.of(topo.ASN(a))); pending[a] == 0 {
			order = append(order, topo.ASN(a))
		}
	}
	for next := 0; next < len(order); next++ {
		for _, cn := range c.cust.of(order[next]) {
			if pending[cn]--; pending[cn] == 0 {
				order = append(order, cn)
			}
		}
	}
	for a := range pending {
		if pending[a] > 0 {
			order = append(order, topo.ASN(a))
		}
	}
	return order
}

// Compute returns the routing table for the given announcements. active
// reports whether each origins entry is currently announced; nil means all
// are active. The returned table is the only allocation.
func (c *Computer) Compute(origins []Origin, active []bool) *Table {
	t := make([]Route, c.n)
	c.solve(t, origins, active)
	return &Table{Routes: t}
}

// solve fills t, which must have one entry per AS, with the routing table.
//
//repolint:hot
func (c *Computer) solve(t []Route, origins []Origin, active []bool) {
	for i := range t {
		t[i] = Route{Site: NoSite}
	}
	for i, o := range origins {
		if o.Site == NoSite || active != nil && !active[i] {
			continue
		}
		seed := Route{Site: o.Site, Class: FromSelf, NextHop: o.Host, Uplink: int32(i), NoExport: o.Local}
		if wins(o.Host, &seed, &t[o.Host]) {
			t[o.Host] = seed
		}
	}

	// Pass 1: customer routes, customers first.
	for _, a := range c.up {
		best := t[a]
		if best.Site != NoSite { // a hosts an origin, which no customer route beats
			continue
		}
		for _, cn := range c.cust.of(a) {
			r := &t[cn]
			if r.Site == NoSite || r.NoExport || r.Class > FromCustomer {
				continue
			}
			cand := Route{Site: r.Site, PathLen: nextLen(r.PathLen), Class: FromCustomer, NextHop: cn, Uplink: r.Uplink}
			if wins(a, &cand, &best) {
				best = cand
			}
		}
		t[a] = best
	}

	// Pass 2: peer routes for ASes without a self/customer route.
	for _, a := range c.peered {
		if t[a].Site != NoSite {
			continue
		}
		best := Route{Site: NoSite}
		for _, p := range c.peer.of(a) {
			r := &t[p]
			if r.Site == NoSite || r.NoExport || r.Class > FromCustomer {
				continue
			}
			cand := Route{Site: r.Site, PathLen: nextLen(r.PathLen), Class: FromPeer, NextHop: p, Uplink: r.Uplink}
			if wins(a, &cand, &best) {
				best = cand
			}
		}
		t[a] = best
	}

	// Local sites' NO_EXPORT adverts reach the host's customers only: the
	// node serves the host's own cone. Advertising to peers or providers
	// would let the tiny site win route ties across the region and siphon
	// traffic it cannot serve.
	for i, o := range origins {
		if !o.Local || o.Site == NoSite || active != nil && !active[i] {
			continue
		}
		ad := Route{Site: o.Site, PathLen: 1, Class: FromProvider, NextHop: o.Host, Uplink: int32(i), NoExport: true}
		for _, cn := range c.cust.of(o.Host) {
			if r := &t[cn]; (r.Site == NoSite || r.Class == FromProvider) && wins(cn, &ad, r) {
				*r = ad
			}
		}
	}

	// Pass 3: provider routes and defaults, providers first.
	for _, a := range c.down {
		best := t[a]
		if best.Site != NoSite && best.Class < FromProvider {
			continue
		}
		provs := c.prov.of(a)
		for _, p := range provs {
			r := &t[p]
			if r.Site == NoSite || r.NoExport {
				continue
			}
			cand := Route{Site: r.Site, PathLen: nextLen(r.PathLen), Class: FromProvider, NextHop: p, Uplink: r.Uplink}
			if wins(a, &cand, &best) {
				best = cand
			}
		}
		if best.Site == NoSite {
			best = defaultRoute(a, provs, t)
		}
		t[a] = best
	}
}

// wins reports whether cand beats the incumbent best at AS a, for a cand
// of best's class or against no incumbent: shorter paths win, tieBreak
// settles equal ones. It is small enough to inline, which keeps the
// common no-tie comparison off a call in every pass.
//
//repolint:hot
func wins(a topo.ASN, cand, best *Route) bool {
	return best.Site == NoSite || cand.PathLen < best.PathLen ||
		cand.PathLen == best.PathLen && tieBreak(a, cand, best)
}

// defaultRoute is the forwarding of an AS without a BGP route: edge
// networks run default routes toward a transit provider, so their packets
// climb the hierarchy until they hit an AS that does hold a route (or a
// default-free tier-1 without one, where they die). Any provider with a
// route qualifies, NO_EXPORT and default routes included; the choice among
// them is a per-AS deterministic hash, like route tie-breaking.
//
//repolint:hot
func defaultRoute(a topo.ASN, provs []topo.ASN, t []Route) Route {
	best := Route{Site: NoSite}
	bestRank := ^uint64(0)
	for _, p := range provs {
		r := &t[p]
		if r.Site == NoSite {
			continue
		}
		if rank := mix64(uint64(a)<<20 ^ uint64(p)); rank < bestRank {
			bestRank = rank
			best = Route{
				Site: r.Site, PathLen: nextLen(r.PathLen), Class: FromProvider,
				NextHop: p, ViaDefault: true, Uplink: r.Uplink, NoExport: true,
			}
		}
	}
	return best
}
