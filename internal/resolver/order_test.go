package resolver

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// mapResolver is the resolver as it was before server selection moved onto
// slot-indexed arrays and a reused order buffer: SRTT and per-letter counts
// in map[byte], a fresh []byte per order() call. It exists only as the
// reference TestResolveMatchesMapReference compares against.
type mapResolver struct {
	cfg   Config
	srtt  map[byte]float64
	cache map[string]int
	rng   *rand.Rand
	rrIdx int

	queries, cacheHits, served, failed, flips uint64
	perLetter                                 map[byte]uint64
}

func newMapResolver(cfg Config) *mapResolver {
	r := &mapResolver{
		cfg:       cfg,
		srtt:      make(map[byte]float64, len(cfg.Letters)),
		cache:     make(map[string]int),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		perLetter: make(map[byte]uint64, len(cfg.Letters)),
	}
	for _, l := range cfg.Letters {
		r.srtt[l] = 50
	}
	return r
}

func (r *mapResolver) order() []byte {
	letters := append([]byte(nil), r.cfg.Letters...)
	switch r.cfg.Strategy {
	case RoundRobin:
		n := len(letters)
		start := r.rrIdx % n
		r.rrIdx++
		rotated := make([]byte, 0, n)
		rotated = append(rotated, letters[start:]...)
		rotated = append(rotated, letters[:start]...)
		return rotated
	case Uniform:
		r.rng.Shuffle(len(letters), func(i, j int) { letters[i], letters[j] = letters[j], letters[i] })
		return letters
	default:
		for i := 1; i < len(letters); i++ {
			for j := i; j > 0 && r.srtt[letters[j]] < r.srtt[letters[j-1]]; j-- {
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

func (r *mapResolver) Resolve(qname string, minute int, up Upstream) Result {
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
			r.perLetter[letter]++
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

func (r *mapResolver) observe(letter byte, rttMs float64, timeout bool) {
	cur := r.srtt[letter]
	if timeout {
		r.srtt[letter] = cur + r.cfg.TimeoutPenaltyMs
		return
	}
	r.srtt[letter] = cur*(1-r.cfg.SRTTDecay) + rttMs*r.cfg.SRTTDecay
}

func (r *mapResolver) LetterShare() map[byte]float64 {
	var total uint64
	for _, n := range r.perLetter {
		total += n
	}
	out := make(map[byte]float64, len(r.perLetter))
	if total == 0 {
		return out
	}
	for l, n := range r.perLetter {
		out[l] = float64(n) / float64(total)
	}
	return out
}

// lossyUpstream answers from a seeded stream: each letter has its own loss
// rate and base RTT, both drifting with the minute, so SRTT order keeps
// changing and every branch of Resolve is taken.
type lossyUpstream struct {
	rng *rand.Rand
}

func (u *lossyUpstream) Query(letter byte, minute int) (bool, float64) {
	k := float64(letter%13) / 13
	phase := float64(minute%97) / 97
	if u.rng.Float64() < 0.9*k*phase+0.05 {
		return false, 0
	}
	return true, 5 + 300*k + 40*phase + u.rng.Float64()
}

// TestResolveMatchesMapReference is the differential proof that moving
// server selection off maps changed no answer: 100 000 seeded queries per
// strategy through both implementations, against identical upstreams, must
// agree on every Result, every SRTT, the counters and the letter shares.
func TestResolveMatchesMapReference(t *testing.T) {
	for _, strat := range []Strategy{PreferFastest, RoundRobin, Uniform} {
		for _, letters := range []string{"ABCDEFGHIJKLM", "KAK", "\x00\xffz"} {
			cfg := DefaultConfig(7)
			cfg.Strategy = strat
			cfg.Letters = []byte(letters)
			cfg.CacheTTLMinutes = 30
			got, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := newMapResolver(cfg)
			upGot := &lossyUpstream{rng: rand.New(rand.NewSource(99))}
			upWant := &lossyUpstream{rng: rand.New(rand.NewSource(99))}
			pick := rand.New(rand.NewSource(3))
			for q := 0; q < 100_000; q++ {
				qname := fmt.Sprintf("site%d.example", pick.Intn(2000))
				minute := q / 40
				a, b := got.Resolve(qname, minute, upGot), want.Resolve(qname, minute, upWant)
				if a != b {
					t.Fatalf("%v %q query %d: got %+v, reference %+v", strat, letters, q, a, b)
				}
				if q%5000 == 0 {
					got.FlushCache()
					want.cache = make(map[string]int)
				}
			}
			for l := 0; l < 256; l++ {
				if a, b := got.SRTT(byte(l)), want.srtt[byte(l)]; a != b {
					t.Errorf("%v %q: SRTT(%d) = %v, reference %v", strat, letters, l, a, b)
				}
			}
			q, c, s, f, fl := got.Stats()
			if q != want.queries || c != want.cacheHits || s != want.served || f != want.failed || fl != want.flips {
				t.Errorf("%v %q: stats %d/%d/%d/%d/%d, reference %d/%d/%d/%d/%d", strat, letters,
					q, c, s, f, fl, want.queries, want.cacheHits, want.served, want.failed, want.flips)
			}
			if a, b := got.LetterShare(), want.LetterShare(); !reflect.DeepEqual(a, b) {
				t.Errorf("%v %q: letter share %v, reference %v", strat, letters, a, b)
			}
		}
	}
}

// TestUncachedResolveDoesNotAllocate pins order()'s comment: picking the
// letters to try allocates nothing, for any strategy, whether the query is
// answered at once or walks the whole retry ladder.
func TestUncachedResolveDoesNotAllocate(t *testing.T) {
	for _, strat := range []Strategy{PreferFastest, RoundRobin, Uniform} {
		for _, answers := range []bool{true, false} {
			cfg := DefaultConfig(1)
			cfg.Strategy = strat
			cfg.CacheTTLMinutes = 0 // nothing stays cached: every Resolve goes upstream
			r, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var up Upstream = constUpstream{ok: answers, rtt: 20}
			r.Resolve("example.com", 0, up) // the one cache-map insert this name will ever need
			minute := 0
			if n := testing.AllocsPerRun(200, func() {
				minute++
				if res := r.Resolve("example.com", minute, up); res.Cached || res.Attempts == 0 {
					t.Fatalf("query was not uncached: %+v", res)
				}
			}); n != 0 {
				t.Errorf("%v, upstream answers=%v: %v allocations per uncached Resolve, want 0", strat, answers, n)
			}
		}
	}
}

type constUpstream struct {
	ok  bool
	rtt float64
}

func (u constUpstream) Query(byte, int) (bool, float64) { return u.ok, u.rtt }
