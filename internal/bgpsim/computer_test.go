package bgpsim_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/rootevent/anycastddos/internal/anycast"
	"github.com/rootevent/anycastddos/internal/bgpsim"
	"github.com/rootevent/anycastddos/internal/bgpsim/bgpsimtest"
	"github.com/rootevent/anycastddos/internal/topo"
)

// routesIdentical compares full Route values: the solver's contract is
// field-for-field identity with the reference sweep, not just matching
// site selections.
func routesIdentical(t *testing.T, ref, got *bgpsim.Table, label string) {
	t.Helper()
	if !reflect.DeepEqual(ref.Routes, got.Routes) {
		for i := range ref.Routes {
			if ref.Routes[i] != got.Routes[i] {
				t.Fatalf("%s: AS%d: reference %+v, computer %+v", label, i, ref.Routes[i], got.Routes[i])
			}
		}
		t.Fatalf("%s: tables differ", label)
	}
}

// testGraph generates a mid-size three-tier topology for equivalence runs.
func testGraph(t *testing.T, seed int64) *topo.Graph {
	t.Helper()
	g, err := topo.Generate(topo.Config{Tier1s: 5, Tier2s: 40, Stubs: 400, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// testOrigins places nSites anycast origins (some multi-uplink, some local)
// deterministically across the graph's stubs.
func testOrigins(g *topo.Graph, nSites int) []bgpsim.Origin {
	stubs := g.StubASNs()
	var origins []bgpsim.Origin
	for s := 0; s < nSites; s++ {
		uplinks := 1 + s%3
		for u := 0; u < uplinks; u++ {
			origins = append(origins, bgpsim.Origin{
				Site:  s,
				Host:  stubs[(s*101+u*37)%len(stubs)],
				Local: s%5 == 4,
			})
		}
	}
	return origins
}

// allActive returns an announcement vector with every origin up.
func allActive(n int) []bool {
	active := make([]bool, n)
	for i := range active {
		active[i] = true
	}
	return active
}

func TestComputerMatchesReferenceColdStart(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		g := testGraph(t, seed)
		origins := testOrigins(g, 8)
		ref := bgpsimtest.Compute(g, origins, nil)
		got := bgpsim.NewComputer(g).Compute(origins, nil)
		routesIdentical(t, ref, got, "cold start")
	}
}

func TestComputerMatchesReferenceOnTinyGraph(t *testing.T) {
	g := bgpsim.TinyGraph()
	origins := []bgpsim.Origin{{Site: 0, Host: 4}, {Site: 1, Host: 5}, {Site: 2, Host: 6, Local: true}}
	c := bgpsim.NewComputer(g)
	for mask := 0; mask < 1<<len(origins); mask++ {
		active := make([]bool, len(origins))
		for i := range active {
			active[i] = mask&(1<<i) != 0
		}
		routesIdentical(t, bgpsimtest.Compute(g, origins, active), c.Compute(origins, active), "subset mask")
	}
}

// flapStep flips one to three random uplinks, or (every 17th step) restores
// the all-active vector — the withdraw/re-announce shape of an attack
// window, including the revisits the engine's table memo hits.
func flapStep(rng *rand.Rand, step int, active []bool) {
	if step%17 == 16 {
		for i := range active {
			active[i] = true
		}
		return
	}
	for k := 0; k < 1+rng.Intn(3); k++ {
		i := rng.Intn(len(active))
		active[i] = !active[i]
	}
}

// TestComputerMatchesReferenceUnderFlapSequence replays a random
// withdraw/re-announce sequence on one Computer and checks identity with
// the reference at every step.
func TestComputerMatchesReferenceUnderFlapSequence(t *testing.T) {
	g := testGraph(t, 3)
	origins := testOrigins(g, 10)
	c := bgpsim.NewComputer(g)
	rng := rand.New(rand.NewSource(99))
	active := allActive(len(origins))
	for step := 0; step < 60; step++ {
		flapStep(rng, step, active)
		routesIdentical(t, bgpsimtest.Compute(g, origins, active), c.Compute(origins, active), "flap step")
	}
}

// rootLetters returns a topo.DefaultConfig graph and every root letter's
// placed deployment as origins, one per uplink in site order — the graphs
// and origin sets the engine routes.
func rootLetters(tb testing.TB, seed int64) (*topo.Graph, []byte, [][]bgpsim.Origin) {
	tb.Helper()
	g, err := topo.Generate(topo.DefaultConfig(seed))
	if err != nil {
		tb.Fatal(err)
	}
	dep, err := anycast.RootDeployment(seed)
	if err != nil {
		tb.Fatal(err)
	}
	if err := dep.Place(g, seed+1); err != nil {
		tb.Fatal(err)
	}
	var names []byte
	var letters [][]bgpsim.Origin
	for _, l := range dep.Letters {
		var origins []bgpsim.Origin
		for si, s := range l.Sites {
			for u := 0; u < s.EffectiveUplinks(); u++ {
				origins = append(origins, bgpsim.Origin{Site: si, Host: s.Hosts[u], Local: s.Local})
			}
		}
		names = append(names, l.Letter)
		letters = append(letters, origins)
	}
	return g, names, letters
}

// TestComputerMatchesReferenceAtEngineScale checks the solver at the size
// the engine runs it: every root letter's deployment (local sites and
// multi-uplink sites included) on topo.DefaultConfig graphs, under a
// 200-step random flap sequence per seed that walks across the letters.
func TestComputerMatchesReferenceAtEngineScale(t *testing.T) {
	if testing.Short() {
		t.Skip("engine-scale reference sweeps")
	}
	for _, seed := range []int64{1, 7, 23} {
		g, names, letters := rootLetters(t, seed)
		active := make([][]bool, len(letters))
		for i, origins := range letters {
			active[i] = allActive(len(origins))
		}
		c := bgpsim.NewComputer(g)
		rng := rand.New(rand.NewSource(seed))
		for step := 0; step < 200; step++ {
			li := step % len(letters)
			if step >= len(letters) {
				li = rng.Intn(len(letters))
				flapStep(rng, step, active[li])
			}
			routesIdentical(t, bgpsimtest.Compute(g, letters[li], active[li]),
				c.Compute(letters[li], active[li]), string(names[li]))
		}
	}
}

// BenchmarkComputer times the two costs an evaluator pays for routing:
// building the view once, and one solve per routing epoch (K-Root's
// deployment on the default graph under a flap sequence).
func BenchmarkComputer(b *testing.B) {
	g, names, letters := rootLetters(b, 1)
	origins := letters[bytes.IndexByte(names, 'K')]
	b.Run("new", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bgpsim.NewComputer(g)
		}
	})
	b.Run("solve", func(b *testing.B) {
		c := bgpsim.NewComputer(g)
		rng := rand.New(rand.NewSource(1))
		active := allActive(len(origins))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			flapStep(rng, i, active)
			c.Compute(origins, active)
		}
	})
}

// TestComputerRepeatedVectorIsStable checks that recomputing an unchanged
// announcement vector, on the same Computer or a fresh one, returns the
// identical table.
func TestComputerRepeatedVectorIsStable(t *testing.T) {
	g := testGraph(t, 5)
	origins := testOrigins(g, 6)
	c := bgpsim.NewComputer(g)
	first := c.Compute(origins, nil)
	routesIdentical(t, first, c.Compute(origins, nil), "repeat")
	routesIdentical(t, first, bgpsim.NewComputer(g).Compute(origins, nil), "fresh computer")
}

// TestComputerSteadyStateAllocations pins the allocation contract: a solve
// allocates only the returned table (routes slice + header).
func TestComputerSteadyStateAllocations(t *testing.T) {
	g := testGraph(t, 11)
	origins := testOrigins(g, 8)
	c := bgpsim.NewComputer(g)
	active := allActive(len(origins))
	toggle := 0
	allocs := testing.AllocsPerRun(20, func() {
		active[toggle] = !active[toggle]
		toggle = (toggle + 1) % len(origins)
		c.Compute(origins, active)
	})
	if allocs > 2 {
		t.Errorf("Compute allocates %.0f objects per call, want <= 2 (result table only)", allocs)
	}
}

// TestComputerSharedAcrossGoroutines is the concurrency contract, meant for
// -race: one Computer solves different announcement vectors from 8
// goroutines at once, and every result equals the sequential solve.
func TestComputerSharedAcrossGoroutines(t *testing.T) {
	g := testGraph(t, 4)
	origins := testOrigins(g, 10)
	c := bgpsim.NewComputer(g)
	const workers = 8
	vectors := make([][]bool, workers)
	want := make([]*bgpsim.Table, workers)
	rng := rand.New(rand.NewSource(8))
	for w := range vectors {
		vectors[w] = allActive(len(origins))
		flapStep(rng, w, vectors[w])
		want[w] = c.Compute(origins, vectors[w])
	}
	got := make([][]*bgpsim.Table, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 4; k++ {
				got[w] = append(got[w], c.Compute(origins, vectors[(w+k)%workers]))
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		for k, tb := range got[w] {
			routesIdentical(t, want[(w+k)%workers], tb, "shared computer")
		}
	}
}

// handGraph builds a graph of n ASes from provider->customer links and
// peerings, in the given list orders.
func handGraph(n int, links, peers [][2]topo.ASN) *topo.Graph {
	g := &topo.Graph{ASes: make([]topo.AS, n)}
	for i := range g.ASes {
		g.ASes[i].ASN = topo.ASN(i)
	}
	for _, l := range links {
		g.ASes[l[0]].Customers = append(g.ASes[l[0]].Customers, l[1])
		g.ASes[l[1]].Providers = append(g.ASes[l[1]].Providers, l[0])
	}
	for _, p := range peers {
		g.ASes[p[0]].Peers = append(g.ASes[p[0]].Peers, p[1])
		g.ASes[p[1]].Peers = append(g.ASes[p[1]].Peers, p[0])
	}
	return g
}

// TestComputerTiesKeepListOrder pins the one place list order decides a
// route: two neighbors offering the same uplink at the same length. The
// first neighbor in the adjacency list is the NextHop, for customers,
// peers and providers alike, and in either list order.
func TestComputerTiesKeepListOrder(t *testing.T) {
	for _, tc := range []struct {
		name         string
		n            int
		links, peers [][2]topo.ASN
		host, at     topo.ASN
		class        bgpsim.RelClass
		wantHop      topo.ASN
	}{
		// AS0 buys from nobody; 1 and 2 are its customers and both
		// providers of the origin host 3.
		{"customers", 4, [][2]topo.ASN{{0, 1}, {0, 2}, {1, 3}, {2, 3}}, nil, 3, 0, bgpsim.FromCustomer, 1},
		{"customers reversed", 4, [][2]topo.ASN{{0, 2}, {0, 1}, {1, 3}, {2, 3}}, nil, 3, 0, bgpsim.FromCustomer, 2},
		// AS0 peers with 1 and 2, both providers of the host 3.
		{"peers", 4, [][2]topo.ASN{{1, 3}, {2, 3}}, [][2]topo.ASN{{0, 1}, {0, 2}}, 3, 0, bgpsim.FromPeer, 1},
		{"peers reversed", 4, [][2]topo.ASN{{1, 3}, {2, 3}}, [][2]topo.ASN{{0, 2}, {0, 1}}, 3, 0, bgpsim.FromPeer, 2},
		// The host 0 sells to 1 and 2, both providers of AS3.
		{"providers", 4, [][2]topo.ASN{{0, 1}, {0, 2}, {1, 3}, {2, 3}}, nil, 0, 3, bgpsim.FromProvider, 1},
		{"providers reversed", 4, [][2]topo.ASN{{0, 2}, {0, 1}, {2, 3}, {1, 3}}, nil, 0, 3, bgpsim.FromProvider, 2},
	} {
		g := handGraph(tc.n, tc.links, tc.peers)
		origins := []bgpsim.Origin{{Site: 0, Host: tc.host}}
		got := bgpsim.NewComputer(g).Compute(origins, nil)
		routesIdentical(t, bgpsimtest.Compute(g, origins, nil), got, tc.name)
		if r := got.Routes[tc.at]; r.Class != tc.class || r.PathLen != 2 || r.NextHop != tc.wantHop {
			t.Errorf("%s: AS%d route %+v, want class %v via AS%d", tc.name, tc.at, r, tc.class, tc.wantHop)
		}
	}
}

// TestComputerAdvertProviderTie covers a local site's NO_EXPORT advert and
// a provider route offering one site at one length. A provider route never
// carries a local origin's uplink (the local seed is not exported), so the
// two always differ in uplink and the per-AS tie rank, not list order,
// picks the winner: both provider orders agree, and both match the
// reference.
func TestComputerAdvertProviderTie(t *testing.T) {
	// AS0 and AS1 are both providers of AS2. Site 0 is local at AS0 and
	// global at AS1, so AS2 holds an advert via 0 and a provider route via
	// 1, each one hop long.
	origins := []bgpsim.Origin{{Site: 0, Host: 0, Local: true}, {Site: 0, Host: 1}}
	var hops []topo.ASN
	for _, links := range [][][2]topo.ASN{{{0, 2}, {1, 2}}, {{1, 2}, {0, 2}}} {
		g := handGraph(3, links, nil)
		got := bgpsim.NewComputer(g).Compute(origins, nil)
		routesIdentical(t, bgpsimtest.Compute(g, origins, nil), got, "advert/provider")
		r := got.Routes[2]
		if r.Class != bgpsim.FromProvider || r.PathLen != 1 || r.Site != 0 {
			t.Fatalf("AS2 route %+v, want a one-hop provider-class route to site 0", r)
		}
		hops = append(hops, r.NextHop)
	}
	if hops[0] != hops[1] {
		t.Errorf("provider list order changed the winner: NextHop %d then %d", hops[0], hops[1])
	}
}

// reversed relabels g so that AS a becomes AS n-1-a, keeping every list's
// order: topo.Generate gives providers lower ASNs, so in the result every
// provider has a higher ASN than its customers.
func reversed(g *topo.Graph) *topo.Graph {
	n := g.N()
	flip := func(l []topo.ASN) []topo.ASN {
		out := make([]topo.ASN, len(l))
		for i, a := range l {
			out[i] = topo.ASN(n - 1 - int(a))
		}
		return out
	}
	r := &topo.Graph{ASes: make([]topo.AS, n)}
	for i := range g.ASes {
		a := g.ASes[i]
		a.ASN = topo.ASN(n - 1 - i)
		a.Providers, a.Customers, a.Peers = flip(a.Providers), flip(a.Customers), flip(a.Peers)
		r.ASes[a.ASN] = a
	}
	return r
}

// TestComputerMatchesReferenceCustomersFirstASNs checks the solver on an
// acyclic graph whose ASN order is the reverse of a provider-first order,
// under a flap sequence.
func TestComputerMatchesReferenceCustomersFirstASNs(t *testing.T) {
	g := reversed(testGraph(t, 6))
	origins := testOrigins(g, 8)
	c := bgpsim.NewComputer(g)
	rng := rand.New(rand.NewSource(6))
	active := allActive(len(origins))
	for step := 0; step < 40; step++ {
		flapStep(rng, step, active)
		routesIdentical(t, bgpsimtest.Compute(g, origins, active), c.Compute(origins, active), "reversed ASNs")
	}
}

// TestComputerProviderCycle: the solver's acyclic precondition is not
// checked, so a provider cycle must neither panic nor make the result
// depend on anything but the inputs.
func TestComputerProviderCycle(t *testing.T) {
	// AS0 and AS1 are each other's provider; AS2, a customer of AS0,
	// hosts the origin.
	g := handGraph(3, [][2]topo.ASN{{0, 1}, {1, 0}, {0, 2}}, nil)
	origins := []bgpsim.Origin{{Site: 0, Host: 2}}
	c := bgpsim.NewComputer(g)
	first := c.Compute(origins, nil)
	routesIdentical(t, first, c.Compute(origins, nil), "cycle repeat")
	routesIdentical(t, first, bgpsim.NewComputer(g).Compute(origins, nil), "cycle fresh computer")
	if first.SiteOf(2) != 0 {
		t.Errorf("origin host lost its own route on a cyclic graph: %+v", first.Routes[2])
	}
}

func TestAppendDiffMatchesDiff(t *testing.T) {
	g := testGraph(t, 2)
	origins := testOrigins(g, 6)
	c := bgpsim.NewComputer(g)
	before := c.Compute(origins, nil)
	active := allActive(len(origins))
	active[0] = false
	after := c.Compute(origins, active)
	ref := bgpsim.Diff(before, after)
	buf := make([]bgpsim.Change, 0, 4)
	got := bgpsim.AppendDiff(buf[:0], before, after)
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("AppendDiff = %v, want %v", got, ref)
	}
	// Appending after existing contents preserves them.
	prefixed := bgpsim.AppendDiff([]bgpsim.Change{{ASN: 0, From: 1, To: 2}}, before, after)
	if len(prefixed) != len(ref)+1 || !reflect.DeepEqual(prefixed[1:], ref) {
		t.Fatalf("AppendDiff did not append after existing contents")
	}
}

func TestCatchmentSizesInto(t *testing.T) {
	tb := bgpsim.Compute(bgpsim.TinyGraph(), []bgpsim.Origin{{Site: 0, Host: 4}, {Site: 1, Host: 5}}, nil)
	ref := tb.CatchmentSizes(2)
	buf := []int{99, 99}
	got := tb.CatchmentSizesInto(buf)
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("CatchmentSizesInto = %v, want %v", got, ref)
	}
	if &buf[0] != &got[0] {
		t.Fatal("CatchmentSizesInto did not reuse the caller's buffer")
	}
}
