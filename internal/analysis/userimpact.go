package analysis

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/rootevent/anycastddos/internal/core"
	"github.com/rootevent/anycastddos/internal/resolver"
	"github.com/rootevent/anycastddos/internal/stats"
)

// UserImpactConfig shapes the end-user experiment.
type UserImpactConfig struct {
	Resolvers       int // recursive resolvers simulated
	QueriesPerBin   int // user queries per resolver per 10-minute bin
	Domains         int // distinct qnames in the workload (Zipf popularity)
	CacheTTLMinutes int
	Strategy        resolver.Strategy
	Seed            int64
}

// DefaultUserImpactConfig exposes enough root queries to see event effects
// while keeping the cache influence the paper credits.
func DefaultUserImpactConfig(seed int64) UserImpactConfig {
	return UserImpactConfig{
		Resolvers:       200,
		QueriesPerBin:   12,
		Domains:         400,
		CacheTTLMinutes: 120,
		Strategy:        resolver.PreferFastest,
		Seed:            seed,
	}
}

// UserImpactResult quantifies §2.3's claim that end users saw no visible
// errors despite per-letter losses up to 95%: the DNS system's caching and
// cross-letter retry absorb the event.
type UserImpactResult struct {
	// FailFrac is the per-bin fraction of user queries that exhausted all
	// retries.
	FailFrac *stats.Series
	// MeanLatencyMs is the per-bin mean user-visible resolution latency
	// (cache hits count as 0).
	MeanLatencyMs *stats.Series
	// FlipFrac is the per-bin fraction of upstream-served queries
	// answered by a letter other than the resolver's first choice —
	// the client-side view of §3.2.2's letter flips.
	FlipFrac *stats.Series
	// RootQueryFrac is the per-bin fraction of user queries that needed a
	// root query at all (cache misses).
	RootQueryFrac *stats.Series

	TotalQueries int
	CacheHitFrac float64
	// LetterShare aggregates which letters served the population.
	LetterShare map[byte]float64
}

// UserImpact runs a resolver population against the completed simulation.
func (a *Analyzer) UserImpact(cfg UserImpactConfig) (*UserImpactResult, error) {
	ev := a.ev
	if cfg.Resolvers < 1 || cfg.QueriesPerBin < 1 || cfg.Domains < 1 {
		return nil, fmt.Errorf("analysis: invalid user-impact config %+v", cfg)
	}
	bins := ev.Cfg.Minutes / 10
	res := &UserImpactResult{
		FailFrac:      stats.NewSeries("user-fail-frac", 0, 10, bins),
		MeanLatencyMs: stats.NewSeries("user-latency-ms", 0, 10, bins),
		FlipFrac:      stats.NewSeries("user-flip-frac", 0, 10, bins),
		RootQueryFrac: stats.NewSeries("root-query-frac", 0, 10, bins),
		LetterShare:   map[byte]float64{},
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	stubs := ev.Graph.StubASNs()
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(cfg.Domains-1))
	// One name per domain rank, formatted once: the query loop below draws
	// ranks, and the resolvers' caches key on the name.
	qnames := make([]string, cfg.Domains)
	for i := range qnames {
		qnames[i] = fmt.Sprintf("site%d.example", i)
	}

	type resolverState struct {
		r  *resolver.Resolver
		up *core.Upstream
	}
	states := make([]resolverState, cfg.Resolvers)
	for i := range states {
		rcfg := resolver.DefaultConfig(cfg.Seed + int64(i))
		rcfg.Strategy = cfg.Strategy
		rcfg.CacheTTLMinutes = cfg.CacheTTLMinutes
		r, err := resolver.New(rcfg)
		if err != nil {
			return nil, err
		}
		asn := stubs[rng.Intn(len(stubs))]
		up, err := ev.Upstream(asn, cfg.Seed+int64(i)*7919)
		if err != nil {
			return nil, err
		}
		states[i] = resolverState{r: r, up: up}
	}

	perBinQueries := make([]int, bins)
	perBinFails := make([]int, bins)
	perBinRoot := make([]int, bins)
	perBinFlips := make([]int, bins)
	perBinLatency := make([]float64, bins)
	var cacheHits, total int
	letterCount := map[byte]int{}

	for b := 0; b < bins; b++ {
		for i := range states {
			st := &states[i]
			for q := 0; q < cfg.QueriesPerBin; q++ {
				minute := b*10 + rng.Intn(10)
				out := st.r.Resolve(qnames[zipf.Uint64()], minute, st.up)
				total++
				perBinQueries[b]++
				perBinLatency[b] += out.LatencyMs
				switch {
				case out.Cached:
					cacheHits++
				case out.Served:
					perBinRoot[b]++
					letterCount[out.Letter]++
					if out.Flipped {
						perBinFlips[b]++
					}
				default:
					perBinRoot[b]++
					perBinFails[b]++
				}
			}
		}
	}

	for b := 0; b < bins; b++ {
		if perBinQueries[b] > 0 {
			res.FailFrac.Values[b] = float64(perBinFails[b]) / float64(perBinQueries[b])
			res.MeanLatencyMs.Values[b] = perBinLatency[b] / float64(perBinQueries[b])
			res.RootQueryFrac.Values[b] = float64(perBinRoot[b]) / float64(perBinQueries[b])
		}
		if perBinRoot[b] > 0 {
			res.FlipFrac.Values[b] = float64(perBinFlips[b]) / float64(perBinRoot[b])
		}
	}
	res.TotalQueries = total
	if total > 0 {
		res.CacheHitFrac = float64(cacheHits) / float64(total)
	}
	var servedTotal int
	for _, n := range letterCount {
		servedTotal += n
	}
	for l, n := range letterCount {
		res.LetterShare[l] = float64(n) / math.Max(1, float64(servedTotal))
	}
	return res, nil
}
