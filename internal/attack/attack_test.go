package attack

import (
	"math"
	"math/rand"
	"testing"

	"github.com/rootevent/anycastddos/internal/topo"
)

func TestEventWindows(t *testing.T) {
	evs := Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d", len(evs))
	}
	e1, e2 := evs[0], evs[1]
	if e1.Duration() != 160 {
		t.Errorf("event 1 duration = %d min, want 160", e1.Duration())
	}
	if e2.Duration() != 60 {
		t.Errorf("event 2 duration = %d min, want 60", e2.Duration())
	}
	if e1.StartMinute != 410 || e1.EndMinute != 570 {
		t.Errorf("event 1 = [%d,%d), want [410,570)", e1.StartMinute, e1.EndMinute)
	}
	if e2.StartMinute != 1750 || e2.EndMinute != 1810 {
		t.Errorf("event 2 = [%d,%d), want [1750,1810)", e2.StartMinute, e2.EndMinute)
	}
	if e1.QName != "www.336901.com" || e2.QName != "www.916yy.com" {
		t.Errorf("qnames = %q, %q", e1.QName, e2.QName)
	}
	// RSSAC bin placement (§3.1): 32-47 B then 16-31 B.
	if e1.QueryBytes < 32 || e1.QueryBytes > 47 {
		t.Errorf("event 1 query bytes = %d", e1.QueryBytes)
	}
	if e2.QueryBytes < 16 || e2.QueryBytes > 31 {
		t.Errorf("event 2 query bytes = %d", e2.QueryBytes)
	}
	for _, e := range evs {
		if e.ResponseBytes < 480 || e.ResponseBytes > 495 {
			t.Errorf("event %d response bytes = %d, want 480-495", e.Index, e.ResponseBytes)
		}
		if e.PerLetterQPS != 5_000_000 {
			t.Errorf("event %d rate = %v", e.Index, e.PerLetterQPS)
		}
	}
}

func TestActive(t *testing.T) {
	tests := []struct {
		minute int
		want   int
	}{
		{0, -1}, {409, -1}, {410, 0}, {569, 0}, {570, -1},
		{1749, -1}, {1750, 1}, {1809, 1}, {1810, -1}, {2879, -1},
	}
	nov := Nov2015Schedule()
	for _, tt := range tests {
		if got := nov.Active(tt.minute); got != tt.want {
			t.Errorf("Active(%d) = %d, want %d", tt.minute, got, tt.want)
		}
	}
}

func TestTargeted(t *testing.T) {
	notAttacked := map[byte]bool{'D': true, 'L': true, 'M': true}
	nov := Nov2015Schedule()
	for _, l := range []byte("ABCDEFGHIJKLM") {
		want := !notAttacked[l]
		if nov.Targeted(l) != want {
			t.Errorf("Targeted(%c) = %v, want %v", l, nov.Targeted(l), want)
		}
	}
}

func TestExpectedUniqueIPs(t *testing.T) {
	m := DefaultSourceMix
	if got := m.ExpectedUniqueIPs(0); got != 0 {
		t.Errorf("zero queries -> %v", got)
	}
	// Small query counts: every random draw is distinct, plus heavies.
	small := m.ExpectedUniqueIPs(1000)
	if small < 500 || small > 1000 {
		t.Errorf("unique(1000) = %v", small)
	}
	// A-Root scale: 5 Mq/s * 160 min = 48 G queries -> should approach
	// but not exceed the IPv4 space, and land in the
	// hundreds-of-millions-to-billions range of Table 3.
	big := m.ExpectedUniqueIPs(5_000_000 * 160 * 60)
	if big < 1e9 || big > math.Pow(2, 32) {
		t.Errorf("unique(48G) = %.3g, want ~1-4.3 G", big)
	}
	// Monotone.
	if m.ExpectedUniqueIPs(1e9) >= m.ExpectedUniqueIPs(1e10) {
		t.Error("unique IPs not monotone in query count")
	}
}

func TestSampleSourceMix(t *testing.T) {
	m := DefaultSourceMix
	rng := rand.New(rand.NewSource(1))
	const n = 200_000
	heavy := 0
	seen := map[uint32]bool{}
	for i := 0; i < n; i++ {
		src := m.SampleSource(rng)
		if src >= 0x0A000000 && src < 0x0A000000+uint32(m.NumHeavy) {
			heavy++
		}
		seen[src] = true
	}
	frac := float64(heavy) / n
	if math.Abs(frac-m.HeavyShare) > 0.02 {
		t.Errorf("heavy fraction = %.3f, want ~%.2f", frac, m.HeavyShare)
	}
	// Distinct sources ≈ heavies + random draws.
	if len(seen) < int(0.3*n) {
		t.Errorf("distinct sources = %d, want >= %d", len(seen), int(0.3*n))
	}
}

func testGraph(t *testing.T) *topo.Graph {
	t.Helper()
	g, err := topo.Generate(topo.Config{Tier1s: 4, Tier2s: 30, Stubs: 500, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBotnetWeights(t *testing.T) {
	g := testGraph(t)
	b := NewBotnet(g, 40, 9)
	if len(b.Origins) != 40 || len(b.Weights) != 40 {
		t.Fatalf("botnet size = %d/%d", len(b.Origins), len(b.Weights))
	}
	var sum float64
	for i, w := range b.Weights {
		if w <= 0 {
			t.Errorf("weight %d = %v", i, w)
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum = %v", sum)
	}
	// Zipf: first origin carries the largest share.
	if b.Weights[0] <= b.Weights[39] {
		t.Error("weights not decreasing")
	}
	rates := b.RatePerAS(5_000_000)
	var total float64
	for _, r := range rates {
		total += r
	}
	if math.Abs(total-5_000_000) > 1 {
		t.Errorf("rate total = %v", total)
	}
	// All origins are stubs.
	for _, asn := range b.Origins {
		if g.AS(asn).Tier != topo.Stub {
			t.Errorf("origin AS%d is %v", asn, g.AS(asn).Tier)
		}
	}
}

func TestBotnetDeterministicAndClamped(t *testing.T) {
	g := testGraph(t)
	b1 := NewBotnet(g, 10, 5)
	b2 := NewBotnet(g, 10, 5)
	for i := range b1.Origins {
		if b1.Origins[i] != b2.Origins[i] {
			t.Fatal("botnet not deterministic")
		}
	}
	huge := NewBotnet(g, 10_000, 5)
	if len(huge.Origins) != len(g.StubASNs()) {
		t.Errorf("oversized botnet = %d origins", len(huge.Origins))
	}
}

func TestClientPopulation(t *testing.T) {
	g := testGraph(t)
	c := NewClientPopulation(g, 3)
	var sum float64
	for asn, w := range c.Weights {
		if w < 0 {
			t.Errorf("negative weight at AS%d", asn)
		}
		if g.AS(asn).Tier != topo.Stub {
			t.Errorf("client weight on non-stub AS%d", asn)
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum = %v", sum)
	}
}

func TestSchedules(t *testing.T) {
	nov := Nov2015Schedule()
	if nov.Name != "nov2015" || len(nov.Events) != 2 {
		t.Fatalf("nov schedule = %+v", nov)
	}
	if nov.Active(450) != 0 || nov.Active(1760) != 1 || nov.Active(1000) != -1 {
		t.Error("nov Active wrong")
	}
	if nov.Targeted('D') || !nov.Targeted('K') {
		t.Error("nov Targeted wrong")
	}

	june := June2016Schedule()
	if len(june.Events) != 1 {
		t.Fatalf("june schedule = %+v", june)
	}
	e := june.Events[0]
	if e.Duration() != 150 {
		t.Errorf("june duration = %d min", e.Duration())
	}
	// Every letter is targeted in the follow-up event.
	for _, l := range []byte("ABCDEFGHIJKLM") {
		if !june.Targeted(l) {
			t.Errorf("june spares %c", l)
		}
	}
	if june.Active(e.StartMinute) != 0 || june.Active(e.EndMinute) != -1 {
		t.Error("june Active wrong")
	}
}
