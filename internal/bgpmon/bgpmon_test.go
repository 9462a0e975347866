package bgpmon

import (
	"testing"

	"github.com/rootevent/anycastddos/internal/bgpsim"
	"github.com/rootevent/anycastddos/internal/topo"
)

func testGraph(t *testing.T) *topo.Graph {
	t.Helper()
	g, err := topo.Generate(topo.Config{Tier1s: 4, Tier2s: 30, Stubs: 300, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewSampledCount(t *testing.T) {
	g := testGraph(t)
	c, err := NewSampled(g, 152, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumPeers() != 152 {
		t.Errorf("peers = %d, want 152", c.NumPeers())
	}
	peers := c.Peers()
	if len(peers) != 152 {
		t.Fatalf("Peers() = %d", len(peers))
	}
	for i := 1; i < len(peers); i++ {
		if peers[i-1] >= peers[i] {
			t.Fatal("Peers() not sorted/unique")
		}
	}
}

func TestNewSampledDeterministic(t *testing.T) {
	g := testGraph(t)
	c1, _ := NewSampled(g, 50, 9)
	c2, _ := NewSampled(g, 50, 9)
	p1, p2 := c1.Peers(), c2.Peers()
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("sampling not deterministic")
		}
	}
}

func TestNewSampledErrors(t *testing.T) {
	g := testGraph(t)
	if _, err := NewSampled(g, 0, 1); err == nil {
		t.Error("want error for 0 peers")
	}
	if _, err := NewSampled(g, g.N()+1, 1); err == nil {
		t.Error("want error for too many peers")
	}
}

func TestObserveFiltersToPeers(t *testing.T) {
	c := New([]topo.ASN{5, 9})
	changes := []bgpsim.Change{
		{ASN: 5, From: 0, To: 1},
		{ASN: 6, From: 0, To: 1}, // not a peer
		{ASN: 9, From: 1, To: bgpsim.NoSite},
	}
	seen := c.Observe(100, 'K', changes)
	if seen != 2 {
		t.Errorf("seen = %d, want 2", seen)
	}
	ups := c.Updates()
	if len(ups) != 2 || ups[0].Peer != 5 || ups[1].Peer != 9 {
		t.Errorf("updates = %+v", ups)
	}
	if ups[1].To != bgpsim.NoSite {
		t.Error("withdrawal not recorded")
	}
}

func TestUpdateSeriesBinning(t *testing.T) {
	c := New([]topo.ASN{1, 2, 3})
	c.Observe(5, 'K', []bgpsim.Change{{ASN: 1, From: 0, To: 1}})
	c.Observe(12, 'K', []bgpsim.Change{{ASN: 2, From: 0, To: 1}, {ASN: 3, From: 0, To: 1}})
	c.Observe(12, 'E', []bgpsim.Change{{ASN: 1, From: 2, To: 3}})
	s := c.UpdateSeries('K', 0, 10, 3)
	if s.Values[0] != 1 || s.Values[1] != 2 || s.Values[2] != 0 {
		t.Errorf("K series = %v", s.Values)
	}
	e := c.UpdateSeries('E', 0, 10, 3)
	if e.Values[1] != 1 {
		t.Errorf("E series = %v", e.Values)
	}
}

func TestEndToEndWithRouting(t *testing.T) {
	// A withdrawal visible in bgpsim.Diff must surface at collectors whose
	// peers sit in the withdrawn catchment.
	g := testGraph(t)
	stubs := g.StubASNs()
	origins := []bgpsim.Origin{{Site: 0, Host: stubs[0]}, {Site: 1, Host: stubs[150]}}
	before := bgpsim.Compute(g, origins, nil)
	after := bgpsim.Compute(g, origins, []bool{false, true})
	changes := bgpsim.Diff(before, after)
	if len(changes) == 0 {
		t.Fatal("withdrawal produced no changes")
	}
	c, err := NewSampled(g, 152, 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := c.Observe(410, 'K', changes)
	if seen == 0 {
		t.Error("no collector peer observed a letter-wide withdrawal; sampling is broken")
	}
	s := c.UpdateSeries('K', 0, 10, 288)
	if s.Values[41] != float64(seen) {
		t.Errorf("bin 41 = %v, want %d", s.Values[41], seen)
	}
}
