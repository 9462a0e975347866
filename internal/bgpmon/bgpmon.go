// Package bgpmon models a BGPmon-style route-collector mesh.
//
// BGPmon peers with dozens of routers around the Internet and records the
// BGP updates they emit; the paper uses 152 such peers to corroborate that
// the site flips seen in RIPE Atlas during the events were caused by actual
// route withdrawals (§2.4.3, Figure 9). Here, collectors are attached to
// ASes of the simulated topology; whenever an attached AS's best route for
// a letter's prefix changes, the collector logs an update event.
package bgpmon

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/rootevent/anycastddos/internal/bgpsim"
	"github.com/rootevent/anycastddos/internal/stats"
	"github.com/rootevent/anycastddos/internal/topo"
)

// Update is one observed route change at a collector peer.
type Update struct {
	Minute int  // simulation minute of the change
	Letter byte // anycast service whose prefix changed
	Peer   topo.ASN
	From   int // previous site (bgpsim.NoSite if none)
	To     int // new site (bgpsim.NoSite if withdrawn)
}

// Collector observes route changes at a fixed set of peer ASes.
type Collector struct {
	peers   map[topo.ASN]bool
	updates []Update
}

// New creates a collector peered with the given ASes.
func New(peers []topo.ASN) *Collector {
	c := &Collector{peers: make(map[topo.ASN]bool, len(peers))}
	for _, p := range peers {
		c.peers[p] = true
	}
	return c
}

// NewSampled creates a collector peered with n ASes sampled deterministically
// from the graph (biased toward transit networks, where real route
// collectors sit). The paper's dataset had 152 peers.
func NewSampled(g *topo.Graph, n int, seed int64) (*Collector, error) {
	if n <= 0 || n > g.N() {
		return nil, fmt.Errorf("bgpmon: cannot sample %d peers from %d ASes", n, g.N())
	}
	rng := rand.New(rand.NewSource(seed))
	// Candidate pool: all tier-2s plus a slice of stubs.
	var pool []topo.ASN
	for i := range g.ASes {
		switch g.ASes[i].Tier {
		case topo.Tier1, topo.Tier2:
			pool = append(pool, topo.ASN(i))
		case topo.Stub:
			if rng.Float64() < 0.05 {
				pool = append(pool, topo.ASN(i))
			}
		}
	}
	if len(pool) < n {
		pool = nil
		for i := range g.ASes {
			pool = append(pool, topo.ASN(i))
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return New(pool[:n]), nil
}

// NumPeers returns the number of peer ASes.
func (c *Collector) NumPeers() int { return len(c.peers) }

// Peers returns the sorted peer ASNs.
func (c *Collector) Peers() []topo.ASN {
	out := make([]topo.ASN, 0, len(c.peers))
	for p := range c.peers {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Observe ingests the routing-table diff for one letter at one minute,
// recording updates for changes visible at peer ASes.
func (c *Collector) Observe(minute int, letter byte, changes []bgpsim.Change) int {
	seen := 0
	for _, ch := range changes {
		if c.peers[ch.ASN] {
			c.updates = append(c.updates, Update{
				Minute: minute, Letter: letter, Peer: ch.ASN, From: ch.From, To: ch.To,
			})
			seen++
		}
	}
	return seen
}

// Updates returns all recorded updates in arrival order.
func (c *Collector) Updates() []Update { return c.updates }

// RestoreUpdates replaces the collector's recorded update stream, used when
// resuming a run from a checkpoint (the diff stream the updates were
// derived from is not retained, so the stream itself is snapshotted).
func (c *Collector) RestoreUpdates(updates []Update) {
	c.updates = append(c.updates[:0:0], updates...)
}

// UpdateSeries bins the collector's updates for one letter into a
// stats.Series of the given shape — the raw material of Figure 9.
func (c *Collector) UpdateSeries(letter byte, startMinute, binMinutes, bins int) *stats.Series {
	s := stats.NewSeries(fmt.Sprintf("bgp-updates-%c", letter), startMinute, binMinutes, bins)
	for _, u := range c.updates {
		if u.Letter != letter {
			continue
		}
		if i, ok := s.BinFor(u.Minute); ok {
			s.Values[i]++
		}
	}
	return s
}
