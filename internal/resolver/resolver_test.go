package resolver

import (
	"testing"
)

// scriptedUpstream answers according to per-letter behaviour tables.
type scriptedUpstream struct {
	ok   map[byte]bool
	rtt  map[byte]float64
	hits map[byte]int
}

func (s *scriptedUpstream) Query(letter byte, minute int) (bool, float64) {
	if s.hits == nil {
		s.hits = map[byte]int{}
	}
	s.hits[letter]++
	return s.ok[letter], s.rtt[letter]
}

func newTestResolver(t *testing.T, mutate func(*Config)) *Resolver {
	t.Helper()
	cfg := DefaultConfig(1)
	cfg.Letters = []byte("ABC")
	cfg.ExploreProb = 0 // deterministic ordering in tests
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// flushCache drops every cached answer.
func flushCache(r *Resolver) { r.cache = r.cache[:0] }

func TestNewValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Letters = nil },
		func(c *Config) { c.MaxAttempts = 0 },
		func(c *Config) { c.SRTTDecay = 0 },
		func(c *Config) { c.SRTTDecay = 1.5 },
		func(c *Config) { c.Strategy = Uniform + 1 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig(1)
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d should fail", i)
		}
	}
}

func TestResolveAndCache(t *testing.T) {
	r := newTestResolver(t, nil)
	up := &scriptedUpstream{ok: map[byte]bool{'A': true, 'B': true, 'C': true},
		rtt: map[byte]float64{'A': 20, 'B': 30, 'C': 40}}
	res := r.Resolve(0, 0, up)
	if !res.Served || res.Cached || res.Attempts != 1 {
		t.Fatalf("first = %+v", res)
	}
	// Second query inside TTL is served from cache without upstream.
	before := up.hits[res.Letter]
	res2 := r.Resolve(0, 10, up)
	if !res2.Cached || !res2.Served {
		t.Fatalf("second = %+v", res2)
	}
	if up.hits[res.Letter] != before {
		t.Error("cache hit still queried upstream")
	}
	// After TTL expiry the root is queried again.
	res3 := r.Resolve(0, 10+DefaultConfig(1).CacheTTLMinutes+120, up)
	if res3.Cached {
		t.Error("expired entry served from cache")
	}
	// served counts upstream-answered queries; cache hits are separate.
	q, hits, served, failed, _ := r.Stats()
	if q != 3 || hits != 1 || served != 2 || failed != 0 {
		t.Errorf("stats = %d/%d/%d/%d", q, hits, served, failed)
	}
}

func TestRetryAcrossLettersOnTimeout(t *testing.T) {
	r := newTestResolver(t, nil)
	// A (fastest initially, all equal -> order ABC) is dead; B answers.
	up := &scriptedUpstream{ok: map[byte]bool{'B': true}, rtt: map[byte]float64{'B': 35}}
	res := r.Resolve(1, 0, up)
	if !res.Served || res.Letter != 'B' || res.Attempts != 2 {
		t.Fatalf("result = %+v", res)
	}
	if !res.Flipped {
		t.Error("answering a non-first letter must count as a flip")
	}
	// Latency includes the timeout wait plus B's RTT.
	if res.LatencyMs != AttemptTimeoutMs+35 {
		t.Errorf("latency = %v", res.LatencyMs)
	}
	// A's SRTT must have been penalized so B is now preferred.
	if r.SRTT('A') <= r.SRTT('B') {
		t.Errorf("SRTT A=%v B=%v; timeout penalty not applied", r.SRTT('A'), r.SRTT('B'))
	}
	// Next query goes straight to B.
	res2 := r.Resolve(2, 0, up)
	if res2.Letter != 'B' || res2.Attempts != 1 || res2.Flipped {
		t.Errorf("after penalty = %+v", res2)
	}
}

func TestTotalFailure(t *testing.T) {
	r := newTestResolver(t, func(c *Config) { c.MaxAttempts = 3 })
	up := &scriptedUpstream{ok: map[byte]bool{}}
	res := r.Resolve(3, 0, up)
	if res.Served || res.Attempts != 3 {
		t.Fatalf("result = %+v", res)
	}
	if res.LatencyMs != 3*AttemptTimeoutMs {
		t.Errorf("latency = %v", res.LatencyMs)
	}
	_, _, _, failed, _ := r.Stats()
	if failed != 1 {
		t.Errorf("failed = %d", failed)
	}
	// Failures are not cached: recovery is visible immediately.
	up.ok['A'] = true
	up.rtt = map[byte]float64{'A': 20}
	if res := r.Resolve(3, 1, up); !res.Served {
		t.Error("recovered letter not used")
	}
}

func TestSRTTConvergesToFastest(t *testing.T) {
	r := newTestResolver(t, nil)
	up := &scriptedUpstream{ok: map[byte]bool{'A': true, 'B': true, 'C': true},
		rtt: map[byte]float64{'A': 150, 'B': 12, 'C': 90}}
	for i := 0; i < 50; i++ {
		flushCache(r)
		r.Resolve(0, i, up)
	}
	share := r.LetterShare()
	if share['B'] < 0.5 {
		t.Errorf("B share = %v; prefer-fastest did not converge (%v)", share['B'], share)
	}
}

func TestRoundRobinSpreads(t *testing.T) {
	r := newTestResolver(t, func(c *Config) { c.Strategy = RoundRobin; c.CacheTTLMinutes = 0 })
	up := &scriptedUpstream{ok: map[byte]bool{'A': true, 'B': true, 'C': true},
		rtt: map[byte]float64{'A': 10, 'B': 10, 'C': 10}}
	for i := 0; i < 30; i++ {
		flushCache(r)
		r.Resolve(0, i, up)
	}
	share := r.LetterShare()
	for _, l := range []byte("ABC") {
		if share[l] < 0.25 || share[l] > 0.45 {
			t.Errorf("round-robin share[%c] = %v", l, share[l])
		}
	}
}

func TestUniformStrategyServes(t *testing.T) {
	r := newTestResolver(t, func(c *Config) { c.Strategy = Uniform; c.CacheTTLMinutes = 0 })
	up := &scriptedUpstream{ok: map[byte]bool{'A': true, 'B': true, 'C': true},
		rtt: map[byte]float64{'A': 10, 'B': 10, 'C': 10}}
	for i := 0; i < 20; i++ {
		flushCache(r)
		if res := r.Resolve(0, i, up); !res.Served {
			t.Fatal("uniform strategy failed to serve")
		}
	}
	if len(r.LetterShare()) < 2 {
		t.Error("uniform strategy used fewer than 2 letters in 20 queries")
	}
}

func TestExplorationRefreshesEstimates(t *testing.T) {
	cfg := DefaultConfig(7)
	cfg.Letters = []byte("AB")
	cfg.ExploreProb = 0.5
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	up := &scriptedUpstream{ok: map[byte]bool{'A': true, 'B': true},
		rtt: map[byte]float64{'A': 10, 'B': 20}}
	for i := 0; i < 60; i++ {
		flushCache(r)
		r.Resolve(0, i, up)
	}
	if up.hits['B'] == 0 {
		t.Error("exploration never tried the slower letter")
	}
}

func TestStrategyString(t *testing.T) {
	if PreferFastest.String() != "prefer-fastest" || RoundRobin.String() != "round-robin" ||
		Uniform.String() != "uniform" || Strategy(9).String() != "Strategy(9)" {
		t.Error("strategy strings")
	}
}
