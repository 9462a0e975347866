package anycast

import (
	"testing"

	"github.com/rootevent/anycastddos/internal/topo"
)

// mustDeployment builds the root deployment or fails the test.
func mustDeployment(t *testing.T, seed int64) *Deployment {
	t.Helper()
	d, err := RootDeployment(seed)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRootDeploymentShape(t *testing.T) {
	d := mustDeployment(t, 1)
	if err := d.Validate(false); err != nil {
		t.Fatal(err)
	}
	if len(d.Letters) != 13 {
		t.Fatalf("letters = %d", len(d.Letters))
	}
	// Spot-check Table 2's architecture.
	wantSites := map[byte]int{
		'A': 5, 'B': 1, 'C': 8, 'E': 32, 'G': 6, 'H': 2, 'K': 30,
	}
	for letter, want := range wantSites {
		l, ok := d.Letter(letter)
		if !ok {
			t.Fatalf("letter %c missing", letter)
		}
		if len(l.Sites) != want {
			t.Errorf("%c has %d sites, want %d", letter, len(l.Sites), want)
		}
	}
	// Many-site letters: close to the observed column (generic builder
	// may drop duplicate city codes).
	for _, tt := range []struct {
		letter byte
		min    int
	}{{'D', 55}, {'F', 45}, {'I', 40}, {'J', 55}, {'L', 70}} {
		l, _ := d.Letter(tt.letter)
		if len(l.Sites) < tt.min {
			t.Errorf("%c has %d sites, want >= %d", tt.letter, len(l.Sites), tt.min)
		}
	}
	b, _ := d.Letter('B')
	if !b.Unicast {
		t.Error("B must be unicast")
	}
	h, _ := d.Letter('H')
	if !h.PrimaryBackup {
		t.Error("H must be primary/backup")
	}
	// RSSAC reporters at event time: A, H, J, K, L.
	for _, l := range d.Letters {
		want := l.Letter == 'A' || l.Letter == 'H' || l.Letter == 'J' || l.Letter == 'K' || l.Letter == 'L'
		if l.ReportsRSSAC != want {
			t.Errorf("%c ReportsRSSAC = %v, want %v", l.Letter, l.ReportsRSSAC, want)
		}
	}
}

func TestPaperSiteListsPresent(t *testing.T) {
	d := mustDeployment(t, 1)
	k, _ := d.Letter('K')
	for _, code := range []string{"AMS", "LHR", "FRA", "NRT", "LED", "RNO", "DOH"} {
		if _, ok := k.SiteByCode(code); !ok {
			t.Errorf("K-%s missing", code)
		}
	}
	kfra, _ := k.SiteByCode("FRA")
	if kfra.ServerMode != ServersIsolate || kfra.NumServers != 3 {
		t.Errorf("K-FRA = mode %v servers %d, want isolate/3", kfra.ServerMode, kfra.NumServers)
	}
	knrt, _ := k.SiteByCode("NRT")
	if knrt.HotServer != 2 || knrt.NumServers != 3 {
		t.Errorf("K-NRT = hot %d servers %d, want 2/3", knrt.HotServer, knrt.NumServers)
	}
	e, _ := d.Letter('E')
	for _, code := range []string{"AMS", "CDG", "WAW", "SYD", "NLV", "LAD"} {
		s, ok := e.SiteByCode(code)
		if !ok {
			t.Errorf("E-%s missing", code)
			continue
		}
		if s.Policy != Withdraw {
			t.Errorf("E-%s policy = %v, want withdraw", code, s.Policy)
		}
	}
	// All K sites absorb.
	for _, s := range k.Sites {
		if s.Policy != Absorb {
			t.Errorf("%s policy = %v, want absorb", s.Name(), s.Policy)
		}
	}
	d2, _ := d.Letter('D')
	if _, ok := d2.SiteByCode("FRA"); !ok {
		// Figure 14 needs D-FRA; the generic list may or may not include
		// it by chance, so this is informational for seed 1.
		t.Log("D-FRA not in generic list for this seed")
	}
}

func TestDeterministicBySeed(t *testing.T) {
	d1 := mustDeployment(t, 7)
	d2 := mustDeployment(t, 7)
	for i, l := range d1.Letters {
		for j, s := range l.Sites {
			if d2.Letters[i].Sites[j].Code != s.Code {
				t.Fatalf("seed-7 deployments differ at %c site %d", l.Letter, j)
			}
		}
	}
}

func TestPlaceAssignsHostsInCityOrRegion(t *testing.T) {
	g, err := topo.Generate(topo.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	d := mustDeployment(t, 2)
	if err := d.Place(g, 3); err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(true); err != nil {
		t.Fatal(err)
	}
	sameCity, sameRegion, total := 0, 0, 0
	for _, l := range d.Letters {
		for _, s := range l.Sites {
			host := g.AS(s.Host)
			if host.Tier != topo.Tier2 {
				t.Errorf("site %s hosted by %v AS", s.Name(), host.Tier)
			}
			total++
			if host.City.Code == s.City.Code {
				sameCity++
			}
			if host.City.Region == s.City.Region {
				sameRegion++
			}
		}
	}
	if sameRegion*100 < total*80 {
		t.Errorf("only %d/%d sites hosted in-region", sameRegion, total)
	}
	if sameCity == 0 {
		t.Error("no site hosted in its own city; city indexing broken")
	}
}

func TestPlaceRequiresTier2s(t *testing.T) {
	g := &topo.Graph{ASes: make([]topo.AS, 3)} // all stubs by zero value? Tier zero value is Tier1
	d := mustDeployment(t, 1)
	// A graph with only tier-1 ASes has no tier-2 hosts.
	if err := d.Place(g, 1); err == nil {
		t.Error("want error when no tier-2 candidates exist")
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	d := &Deployment{Letters: []*Letter{{Letter: 'X'}}}
	if err := d.Validate(false); err == nil {
		t.Error("letter without sites must fail")
	}
	site := func() *Site {
		return &Site{Letter: 'X', Code: "AMS", CapacityQPS: 10, NumServers: 1}
	}
	d = &Deployment{Letters: []*Letter{{Letter: 'X', Sites: []*Site{site(), site()}}}}
	if err := d.Validate(false); err == nil {
		t.Error("duplicate site codes must fail")
	}
	s := site()
	s.CapacityQPS = 0
	d = &Deployment{Letters: []*Letter{{Letter: 'X', Sites: []*Site{s}}}}
	if err := d.Validate(false); err == nil {
		t.Error("zero capacity must fail")
	}
	s2 := site()
	s2.HotServer = 5
	d = &Deployment{Letters: []*Letter{{Letter: 'X', Sites: []*Site{s2}}}}
	if err := d.Validate(false); err == nil {
		t.Error("hot server beyond count must fail")
	}
	d = &Deployment{Letters: []*Letter{
		{Letter: 'X', Sites: []*Site{site()}},
		{Letter: 'X', Sites: []*Site{site()}},
	}}
	if err := d.Validate(false); err == nil {
		t.Error("duplicate letters must fail")
	}
}

func TestSortedLettersAndNames(t *testing.T) {
	d := mustDeployment(t, 1)
	ls := d.SortedLetters()
	if len(ls) != 13 || ls[0] != 'A' || ls[12] != 'M' {
		t.Errorf("SortedLetters = %s", string(ls))
	}
	k, _ := d.Letter('K')
	s, _ := k.SiteByCode("AMS")
	if s.Name() != "K-AMS" {
		t.Errorf("Name = %q", s.Name())
	}
	if _, ok := k.SiteByCode("XXX"); ok {
		t.Error("SiteByCode(XXX) should fail")
	}
	if _, ok := d.Letter('Z'); ok {
		t.Error("Letter(Z) should fail")
	}
}

func TestPolicyAndModeStrings(t *testing.T) {
	if Absorb.String() != "absorb" || Withdraw.String() != "withdraw" || Adaptive.String() != "adaptive" || Policy(9).String() != "Policy(9)" {
		t.Error("Policy strings")
	}
	if ServersShared.String() != "shared" || ServersIsolate.String() != "isolate" || ServerMode(9).String() != "ServerMode(9)" {
		t.Error("ServerMode strings")
	}
}
