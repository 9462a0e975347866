package topo

import (
	"testing"

	"github.com/rootevent/anycastddos/internal/geo"
)

func TestGenerateDefaultValidates(t *testing.T) {
	g, err := Generate(DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.N() != 12+240+2750 {
		t.Errorf("N = %d", g.N())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	g1, err := Generate(DefaultConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Generate(DefaultConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	for i := range g1.ASes {
		a, b := &g1.ASes[i], &g2.ASes[i]
		if a.City.Code != b.City.Code || a.Tier != b.Tier ||
			len(a.Providers) != len(b.Providers) || len(a.Peers) != len(b.Peers) {
			t.Fatalf("AS%d differs between identical seeds", i)
		}
	}
	g3, err := Generate(DefaultConfig(43))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range g1.ASes {
		if g1.ASes[i].City.Code != g3.ASes[i].City.Code {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical city assignments")
	}
}

func TestTierStructure(t *testing.T) {
	g, _ := Generate(Config{Tier1s: 4, Tier2s: 20, Stubs: 100, Seed: 7})
	// Tier-1 full mesh.
	for i := 0; i < 4; i++ {
		a := &g.ASes[i]
		if a.Tier != Tier1 {
			t.Fatalf("AS%d tier = %v", i, a.Tier)
		}
		if len(a.Peers) < 3 {
			t.Errorf("tier-1 AS%d has %d peers, want >= 3 (clique)", i, len(a.Peers))
		}
		if len(a.Providers) != 0 {
			t.Errorf("tier-1 AS%d has providers", i)
		}
	}
	// Every tier-2 has providers, drawn from tier-1s or earlier tier-2s
	// (the second transit layer).
	topLayer := 0
	for i := 4; i < 24; i++ {
		a := &g.ASes[i]
		if a.Tier != Tier2 {
			t.Fatalf("AS%d tier = %v", i, a.Tier)
		}
		if len(a.Providers) < 1 {
			t.Errorf("tier-2 AS%d has no providers", i)
		}
		if g.HasTier1Provider(ASN(i)) {
			topLayer++
		}
		for _, p := range a.Providers {
			if g.AS(p).Tier == Stub {
				t.Errorf("tier-2 AS%d has stub provider AS%d", i, p)
			}
		}
	}
	if topLayer < 5 {
		t.Errorf("only %d of 20 tier-2s connect directly to tier-1s", topLayer)
	}
	// Every stub has at least one provider, and all stub providers are tier-2.
	for i := 24; i < g.N(); i++ {
		a := &g.ASes[i]
		if a.Tier != Stub {
			t.Fatalf("AS%d tier = %v", i, a.Tier)
		}
		if len(a.Providers) == 0 {
			t.Errorf("stub AS%d has no provider", i)
		}
		for _, p := range a.Providers {
			if g.AS(p).Tier != Tier2 {
				t.Errorf("stub AS%d has provider AS%d of tier %v", i, p, g.AS(p).Tier)
			}
		}
	}
}

func TestRegionBias(t *testing.T) {
	g, _ := Generate(DefaultConfig(3))
	counts := map[geo.Region]int{}
	total := 0
	for _, a := range g.ASes {
		if a.Tier == Stub {
			counts[a.City.Region]++
			total++
		}
	}
	euFrac := float64(counts[geo.Europe]) / float64(total)
	if euFrac < 0.30 || euFrac > 0.46 {
		t.Errorf("Europe stub fraction = %.2f, want ~0.38", euFrac)
	}
	if counts[geo.Africa] >= counts[geo.NorthAmerica] {
		t.Error("region weights not applied")
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(Config{Tier1s: 1, Tier2s: 5, Stubs: 5}); err == nil {
		t.Error("want error for single tier-1")
	}
	if _, err := Generate(Config{Tier1s: 3, Tier2s: 0, Stubs: 5}); err == nil {
		t.Error("want error for zero tier-2")
	}
	if _, err := Generate(Config{Tier1s: 3, Tier2s: 3, Stubs: 0}); err == nil {
		t.Error("want error for zero stubs")
	}
}

func TestStubASNsAndRegions(t *testing.T) {
	g, _ := Generate(Config{Tier1s: 3, Tier2s: 10, Stubs: 50, Seed: 9})
	stubs := g.StubASNs()
	if len(stubs) != 50 {
		t.Errorf("StubASNs = %d, want 50", len(stubs))
	}
	for _, s := range stubs {
		if g.AS(s).Tier != Stub {
			t.Errorf("AS%d not a stub", s)
		}
	}
	for i := range g.ASes {
		if r := g.ASes[i].City.Region; r < 0 || r >= 7 {
			t.Errorf("AS%d in region %d, outside the paper's seven", i, r)
		}
	}
}

func TestDegree(t *testing.T) {
	a := AS{Providers: []ASN{1, 2}, Customers: []ASN{3}, Peers: []ASN{4, 5, 6}}
	if a.Degree() != 6 {
		t.Errorf("Degree = %d", a.Degree())
	}
}

func TestTierString(t *testing.T) {
	if Tier1.String() != "tier1" || Stub.String() != "stub" || Tier(9).String() != "Tier(9)" {
		t.Error("Tier.String mismatch")
	}
}

func BenchmarkGenerateDefault(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Generate(DefaultConfig(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
