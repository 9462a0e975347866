// Package resolver models recursive DNS resolvers — the actual clients of
// the root service. The paper observes that despite per-letter loss rates
// of up to 95%, "there were no known reports of end-user visible errors,
// because top-level names are extensively cached, and the DNS system is
// designed to retry and operate in the face of partial failure" (§2.3),
// and that resolvers "flip" between letters under stress, visible as load
// increases at unattacked letters (§3.2.2). Evaluating this interplay is
// the future work the paper calls out in §5; this package implements it.
//
// A Resolver keeps a per-letter smoothed RTT estimate (the BIND-style
// server-selection behaviour the paper cites), prefers the fastest letter,
// retries across letters on timeout, and caches answers by qname.
package resolver

import (
	"errors"
	"fmt"
	"math/rand"
)

// Upstream is the resolver's view of the root service: one attempt to one
// letter at a simulation time, returning whether a response arrived and its
// RTT. Implemented by core.Evaluator against the simulated event.
type Upstream interface {
	Query(letter byte, minute int) (ok bool, rttMs float64)
}

// Strategy selects which letter to try first.
type Strategy uint8

// Selection strategies.
const (
	// PreferFastest picks the letter with the lowest smoothed RTT and
	// explores alternatives occasionally — BIND-like behaviour, and the
	// mechanism behind the paper's "letter flips".
	PreferFastest Strategy = iota
	// RoundRobin cycles through letters (unbound-like spreading).
	RoundRobin
	// Uniform picks uniformly at random each query.
	Uniform
)

// String returns the strategy name.
func (s Strategy) String() string {
	switch s {
	case PreferFastest:
		return "prefer-fastest"
	case RoundRobin:
		return "round-robin"
	case Uniform:
		return "uniform"
	default:
		return fmt.Sprintf("Strategy(%d)", uint8(s))
	}
}

// Config parameterizes a resolver.
type Config struct {
	Letters  []byte
	Strategy Strategy
	// MaxAttempts bounds the retry ladder across letters per query
	// (resolvers typically try several servers before giving up).
	MaxAttempts int
	// TimeoutPenaltyMs is added to a letter's smoothed RTT on timeout,
	// steering subsequent queries away from it.
	TimeoutPenaltyMs float64
	// SRTTDecay is the EWMA weight of a new sample (0..1].
	SRTTDecay float64
	// CacheTTLMinutes is how long answers stay cached. Top-level answers
	// are cached for days in reality; shorter values expose more root
	// queries and make event effects visible.
	CacheTTLMinutes int
	// ExploreProb occasionally tries a non-best letter under
	// PreferFastest, keeping SRTT estimates fresh.
	ExploreProb float64
	Seed        int64
}

// DefaultConfig mirrors common resolver behaviour.
func DefaultConfig(seed int64) Config {
	return Config{
		Letters:          []byte("ABCDEFGHIJKLM"),
		Strategy:         PreferFastest,
		MaxAttempts:      4,
		TimeoutPenaltyMs: 800,
		SRTTDecay:        0.3,
		CacheTTLMinutes:  120,
		ExploreProb:      0.05,
		Seed:             seed,
	}
}

// Result describes the fate of one user query.
type Result struct {
	// Cached is true when the answer came from the cache (no root query).
	Cached bool
	// Served is true when some letter answered within MaxAttempts.
	Served bool
	// Letter is the letter that answered (when Served and not Cached).
	Letter byte
	// Attempts counts upstream tries, 0 for cache hits.
	Attempts int
	// LatencyMs is the user-visible resolution latency: the RTTs of all
	// attempts plus timeout waits for the failed ones.
	LatencyMs float64
	// Flipped is true when the answering letter differs from the
	// resolver's first choice — a "letter flip" (§3.2.2).
	Flipped bool
}

// AttemptTimeoutMs is the per-attempt timeout a resolver waits before
// moving to the next server.
const AttemptTimeoutMs = 1000

// Resolver is one recursive resolver instance. Not safe for concurrent
// use; simulations shard resolvers per goroutine.
type Resolver struct {
	cfg Config
	// srtt and perLetter are indexed by slot[letter]: server selection
	// compares and updates them on every uncached query. Configured letters
	// get slots 1..n; every other byte shares slot 0, which is never
	// written.
	slot  [256]uint16
	srtt  []float64
	cache map[string]int // qname -> expiry minute
	rng   *rand.Rand
	rrIdx int
	// ord is order's result buffer, reused by every query; swapOrd swaps two
	// of its elements (built once, for rng.Shuffle).
	ord     []byte
	swapOrd func(i, j int)

	// Stats.
	queries, cacheHits, served, failed uint64
	flips                              uint64
	perLetter                          []uint64
}

// New creates a resolver.
func New(cfg Config) (*Resolver, error) {
	if len(cfg.Letters) == 0 {
		return nil, errors.New("resolver: no letters configured")
	}
	if cfg.MaxAttempts < 1 {
		return nil, errors.New("resolver: MaxAttempts must be >= 1")
	}
	if cfg.SRTTDecay <= 0 || cfg.SRTTDecay > 1 {
		return nil, errors.New("resolver: SRTTDecay must be in (0,1]")
	}
	r := &Resolver{
		cfg:   cfg,
		cache: make(map[string]int),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		ord:   make([]byte, len(cfg.Letters)),
	}
	r.swapOrd = func(i, j int) { r.ord[i], r.ord[j] = r.ord[j], r.ord[i] }
	r.srtt = append(r.srtt, 0)
	for _, l := range cfg.Letters {
		if r.slot[l] == 0 {
			r.slot[l] = uint16(len(r.srtt))
			// Optimistic initial estimates force early exploration.
			r.srtt = append(r.srtt, 50)
		}
	}
	r.perLetter = make([]uint64, len(r.srtt))
	return r, nil
}

// order returns the letters to try, best first, for this query. The
// result aliases r.ord and is valid until the next call.
//
//repolint:hot
func (r *Resolver) order() []byte {
	letters := r.ord
	switch r.cfg.Strategy {
	case RoundRobin:
		start := r.rrIdx % len(letters)
		r.rrIdx++
		n := copy(letters, r.cfg.Letters[start:])
		copy(letters[n:], r.cfg.Letters[:start])
		return letters
	case Uniform:
		copy(letters, r.cfg.Letters)
		r.rng.Shuffle(len(letters), r.swapOrd)
		return letters
	default: // PreferFastest
		copy(letters, r.cfg.Letters)
		// Insertion sort by SRTT (13 letters; cheap and allocation-free).
		for i := 1; i < len(letters); i++ {
			for j := i; j > 0 && r.srtt[r.slot[letters[j]]] < r.srtt[r.slot[letters[j-1]]]; j-- {
				letters[j], letters[j-1] = letters[j-1], letters[j]
			}
		}
		if r.cfg.ExploreProb > 0 && r.rng.Float64() < r.cfg.ExploreProb && len(letters) > 1 {
			k := 1 + r.rng.Intn(len(letters)-1)
			letters[0], letters[k] = letters[k], letters[0]
		}
		return letters
	}
}

// Resolve handles one user query for qname at the given simulation minute.
func (r *Resolver) Resolve(qname string, minute int, up Upstream) Result {
	r.queries++
	if exp, ok := r.cache[qname]; ok && exp > minute {
		r.cacheHits++
		return Result{Cached: true, Served: true}
	}
	res := Result{}
	order := r.order()
	first := order[0]
	for attempt := 0; attempt < r.cfg.MaxAttempts && attempt < len(order); attempt++ {
		letter := order[attempt]
		res.Attempts++
		ok, rtt := up.Query(letter, minute)
		if ok {
			res.LatencyMs += rtt
			res.Served = true
			res.Letter = letter
			res.Flipped = letter != first
			r.observe(letter, rtt, false)
			r.perLetter[r.slot[letter]]++
			if res.Flipped {
				r.flips++
			}
			r.served++
			r.cache[qname] = minute + r.cfg.CacheTTLMinutes
			return res
		}
		res.LatencyMs += AttemptTimeoutMs
		r.observe(letter, 0, true)
	}
	r.failed++
	return res
}

// observe updates the SRTT estimate for a letter.
func (r *Resolver) observe(letter byte, rttMs float64, timeout bool) {
	est := &r.srtt[r.slot[letter]]
	if timeout {
		*est += r.cfg.TimeoutPenaltyMs
		return
	}
	*est = *est*(1-r.cfg.SRTTDecay) + rttMs*r.cfg.SRTTDecay
}

// SRTT returns the current smoothed RTT estimate for a letter.
func (r *Resolver) SRTT(letter byte) float64 { return r.srtt[r.slot[letter]] }

// Stats reports cumulative counters.
func (r *Resolver) Stats() (queries, cacheHits, served, failed, flips uint64) {
	return r.queries, r.cacheHits, r.served, r.failed, r.flips
}

// LetterShare returns the fraction of upstream-served queries answered by
// each letter; letters that never answered are absent.
func (r *Resolver) LetterShare() map[byte]float64 {
	var total uint64
	for _, n := range r.perLetter {
		total += n
	}
	out := make(map[byte]float64)
	for _, l := range r.cfg.Letters {
		if n := r.perLetter[r.slot[l]]; n > 0 {
			out[l] = float64(n) / float64(total)
		}
	}
	return out
}

// FlushCache drops all cached entries (for tests and phase boundaries).
func (r *Resolver) FlushCache() { r.cache = make(map[string]int) }
