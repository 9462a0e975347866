package bgpsim

// Fabric is the runtime announce/withdraw bridge between a site controller
// and the routing simulation. Where Compute and Computer answer "what table
// do these announcements produce?", a Fabric holds the *current* announce
// state of a fixed origin set and lets a controller flip individual origins
// at runtime — each flip re-solves the table on the fabric's Computer (one
// three-pass solve over the whole graph, whatever the size of the routing
// change) and bumps a version counter observers can poll cheaply.

import (
	"fmt"
	"sync"

	"github.com/rootevent/anycastddos/internal/topo"
)

// Fabric is a mutable announce/withdraw view over a fixed origin set.
// It is safe for concurrent use; tables it returns are immutable snapshots.
type Fabric struct {
	mu      sync.Mutex
	comp    *Computer
	origins []Origin
	active  []bool
	table   *Table
	version uint64
}

// NewFabric builds a fabric for the given graph and origins, with every
// origin initially announced, and computes the initial table (version 1).
// The origin set is fixed for the fabric's lifetime: controllers flip
// announce state per origin index, they do not add or remove sites.
func NewFabric(g *topo.Graph, origins []Origin) *Fabric {
	f := &Fabric{
		comp:    NewComputer(g),
		origins: append([]Origin(nil), origins...),
		active:  make([]bool, len(origins)),
	}
	for i := range f.active {
		f.active[i] = true
	}
	f.table = f.comp.Compute(f.origins, f.active)
	f.version = 1
	return f
}

// SetAnnounced flips origin index i to the given announce state. It
// returns true if the state changed (and the table was recomputed);
// flipping to the current state is a no-op. Out-of-range indices panic:
// the origin set is fixed, so a bad index is a controller bug.
func (f *Fabric) SetAnnounced(i int, announced bool) bool {
	if i < 0 || i >= len(f.origins) {
		panic(fmt.Sprintf("bgpsim: origin index %d out of range [0,%d)", i, len(f.origins))) //repolint:allow panic -- fixed origin set: a bad index is a controller bug, like a slice bound
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.active[i] == announced {
		return false
	}
	f.active[i] = announced
	f.table = f.comp.Compute(f.origins, f.active)
	f.version++
	return true
}

// Announce announces origin i; reports whether the state changed.
func (f *Fabric) Announce(i int) bool { return f.SetAnnounced(i, true) }

// Withdraw withdraws origin i; reports whether the state changed.
func (f *Fabric) Withdraw(i int) bool { return f.SetAnnounced(i, false) }

// Announced reports origin i's current announce state.
func (f *Fabric) Announced(i int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.active[i]
}

// AnnouncedCount returns how many origins are currently announced.
func (f *Fabric) AnnouncedCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, a := range f.active {
		if a {
			n++
		}
	}
	return n
}

// Table returns the current routing table snapshot. The table is never
// mutated after publication, so callers may hold it across flips (and
// compare it to later snapshots with Diff).
func (f *Fabric) Table() *Table {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.table
}

// Version returns the table version: 1 after construction, +1 per
// state-changing flip. Observers poll it to detect routing changes
// without diffing tables.
func (f *Fabric) Version() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.version
}

// CatchmentSizes returns the per-site catchment sizes of the current
// table, indexed by Origin.Site (which controllers conventionally assign
// densely as the origin index).
func (f *Fabric) CatchmentSizes() []int {
	f.mu.Lock()
	t := f.table
	f.mu.Unlock()
	maxSite := 0
	for _, o := range f.origins {
		if o.Site > maxSite {
			maxSite = o.Site
		}
	}
	return t.CatchmentSizes(maxSite + 1)
}

// SiteOf returns the site currently serving AS a, or NoSite.
func (f *Fabric) SiteOf(a topo.ASN) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.table.SiteOf(a)
}
