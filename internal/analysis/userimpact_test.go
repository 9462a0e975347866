package analysis

import (
	"testing"

	"github.com/rootevent/anycastddos/internal/attack"
	"github.com/rootevent/anycastddos/internal/resolver"
)

func TestUserImpactEndUsersShielded(t *testing.T) {
	ev, _ := getShared(t)
	cfg := DefaultUserImpactConfig(3)
	cfg.Resolvers = 60
	cfg.QueriesPerBin = 6
	res, err := New(ev, nil).UserImpact(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalQueries != 60*6*288 {
		t.Fatalf("total queries = %d", res.TotalQueries)
	}
	// The paper's headline: no end-user visible errors despite severe
	// per-letter loss. Failure fraction must stay tiny even mid-event.
	evBin := (attack.Event1Start + 80) / 10
	if res.FailFrac.Values[evBin] > 0.02 {
		t.Errorf("mid-event user failure fraction = %v, want ~0 (caching + retries)", res.FailFrac.Values[evBin])
	}
	max, _, _ := res.FailFrac.Max()
	if max > 0.05 {
		t.Errorf("worst-bin failure fraction = %v", max)
	}
	// Caching absorbs most queries.
	if res.CacheHitFrac < 0.5 {
		t.Errorf("cache hit fraction = %v, want > 0.5", res.CacheHitFrac)
	}
	// Letter flips spike during events relative to quiet periods.
	pre := res.FlipFrac.Values[20]
	during := res.FlipFrac.Values[evBin]
	if during <= pre {
		t.Errorf("flip fraction %v -> %v; expected event increase", pre, during)
	}
	// Latency rises during the event (retries + queueing) but stays
	// bounded by the retry ladder.
	if res.MeanLatencyMs.Values[evBin] <= res.MeanLatencyMs.Values[20] {
		t.Errorf("latency %v -> %v; expected event increase",
			res.MeanLatencyMs.Values[20], res.MeanLatencyMs.Values[evBin])
	}
	// Multiple letters served the population.
	if len(res.LetterShare) < 4 {
		t.Errorf("letters used = %d, want >= 4", len(res.LetterShare))
	}
}

func TestUserImpactConfigValidation(t *testing.T) {
	ev, _ := getShared(t)
	bad := []UserImpactConfig{
		{Resolvers: 0, QueriesPerBin: 1, Domains: 1},
		{Resolvers: 1, QueriesPerBin: 0, Domains: 1},
		{Resolvers: 1, QueriesPerBin: 1, Domains: 0},
	}
	for i, cfg := range bad {
		if _, err := New(ev, nil).UserImpact(cfg); err == nil {
			t.Errorf("config %d should fail", i)
		}
	}
}

func TestUserImpactStrategies(t *testing.T) {
	// SRTT-aware selection (what real resolvers do) shields users best;
	// blind strategies can burn their whole retry ladder on dead letters
	// mid-event. The ordering — adaptive <= blind — is the point.
	ev, _ := getShared(t)
	worst := map[resolver.Strategy]float64{}
	for _, strat := range []resolver.Strategy{resolver.PreferFastest, resolver.RoundRobin, resolver.Uniform} {
		cfg := DefaultUserImpactConfig(5)
		cfg.Resolvers = 20
		cfg.QueriesPerBin = 3
		cfg.Strategy = strat
		res, err := New(ev, nil).UserImpact(cfg)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		max, _, _ := res.FailFrac.Max()
		worst[strat] = max
		if max > 0.30 {
			t.Errorf("%v: worst failure fraction %v", strat, max)
		}
	}
	if worst[resolver.PreferFastest] > worst[resolver.RoundRobin]+0.01 ||
		worst[resolver.PreferFastest] > worst[resolver.Uniform]+0.01 {
		t.Errorf("prefer-fastest (%v) should not fail more than blind strategies (rr %v, uniform %v)",
			worst[resolver.PreferFastest], worst[resolver.RoundRobin], worst[resolver.Uniform])
	}
}

// TestUserImpactAllocationsIndependentOfQueries pins the query loop's
// allocation-free claim: eight times the user queries may cost no more
// extra allocations than the per-bin series has bins. What may differ is
// the resolvers' name caches, which grow with the largest name drawn.
func TestUserImpactAllocationsIndependentOfQueries(t *testing.T) {
	ev, _ := getShared(t)
	a := New(ev, nil)
	mallocs := func(queriesPerBin int) float64 {
		cfg := DefaultOutcomeConfig(7).User
		cfg.QueriesPerBin = queriesPerBin
		return testing.AllocsPerRun(1, func() {
			if _, err := a.UserImpact(*cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := mallocs(4), mallocs(32)
	// One allocation per query would add 60 resolvers × 28 × bins.
	if bins := float64(ev.Cfg.Minutes / 10); many-few > bins {
		t.Errorf("%v mallocs at 4 queries per bin, %v at 32: more than the %v bins apart", few, many, bins)
	}
}
