package resolver

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
)

// mapResolver is the resolver as it was before server selection moved onto
// slot-indexed arrays and a kept order, and before the cache was keyed by
// name ID: SRTT and per-letter counts in map[byte], a map[string]int cache
// keyed by the name's text, and a fresh stable insertion sort of
// cfg.Letters per order() call. It exists only as the reference
// TestResolveMatchesMapReference and FuzzResolveMatchesReference compare
// against.
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
// changing and every branch of Resolve is taken. With special set, about
// one answer in 20 carries one of its RTTs instead: +Inf ties estimates at
// infinity, and -Inf after +Inf at one letter makes its estimate NaN.
type lossyUpstream struct {
	rng     *rand.Rand
	special []float64
}

func (u *lossyUpstream) Query(letter byte, minute int) (bool, float64) {
	k := float64(letter%13) / 13
	phase := float64(((minute%97)+97)%97) / 97
	if u.rng.Float64() < 0.9*k*phase+0.05 {
		return false, 0
	}
	if len(u.special) > 0 && u.rng.Intn(20) == 0 {
		return true, u.special[u.rng.Intn(len(u.special))]
	}
	return true, 5 + 300*k + 40*phase + u.rng.Float64()
}

// Upstream RTT sets for lossyUpstream.special.
var (
	infRTTs = []float64{math.Inf(1)}
	nanRTTs = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
)

// differ runs a Resolver and the reference side by side, each against its
// own copy of one seeded upstream. Name ID n is the reference's qname
// strconv.Itoa(n).
type differ struct {
	got           *Resolver
	want          *mapResolver
	upGot, upWant *lossyUpstream
}

func newDiffer(cfg Config, upSeed int64, special []float64) (*differ, error) {
	got, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return &differ{
		got:    got,
		want:   newMapResolver(cfg),
		upGot:  &lossyUpstream{rng: rand.New(rand.NewSource(upSeed)), special: special},
		upWant: &lossyUpstream{rng: rand.New(rand.NewSource(upSeed)), special: special},
	}, nil
}

func (d *differ) resolve(name, minute int) error {
	a := d.got.Resolve(name, minute, d.upGot)
	b := d.want.Resolve(strconv.Itoa(name), minute, d.upWant)
	if !sameFloat(a.LatencyMs, b.LatencyMs) || a.Cached != b.Cached || a.Served != b.Served ||
		a.Letter != b.Letter || a.Attempts != b.Attempts || a.Flipped != b.Flipped {
		return fmt.Errorf("name %d at minute %d: got %+v, reference %+v", name, minute, a, b)
	}
	return nil
}

func (d *differ) flush() {
	flushCache(d.got)
	d.want.cache = make(map[string]int)
}

// final compares every SRTT estimate, the counters and the letter shares.
func (d *differ) final() error {
	for l := 0; l < 256; l++ {
		if a, b := d.got.SRTT(byte(l)), d.want.srtt[byte(l)]; !sameFloat(a, b) {
			return fmt.Errorf("SRTT(%d) = %v, reference %v", l, a, b)
		}
	}
	w := d.want
	q, c, s, f, fl := d.got.Stats()
	if q != w.queries || c != w.cacheHits || s != w.served || f != w.failed || fl != w.flips {
		return fmt.Errorf("stats %d/%d/%d/%d/%d, reference %d/%d/%d/%d/%d",
			q, c, s, f, fl, w.queries, w.cacheHits, w.served, w.failed, w.flips)
	}
	if a, b := d.got.LetterShare(), w.LetterShare(); !reflect.DeepEqual(a, b) {
		return fmt.Errorf("letter share %v, reference %v", a, b)
	}
	return nil
}

// sameFloat is float equality under which NaN equals NaN.
func sameFloat(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }

// refLetterSets are the letter sets both differential tests draw from: the
// 13 letters, a duplicated letter, and the extreme bytes.
var refLetterSets = []string{"ABCDEFGHIJKLM", "KAK", "\x00\xffz"}

// TestResolveMatchesMapReference is the differential proof that server
// selection on slot arrays with a kept order, and a cache keyed by name ID,
// changed no answer: seeded queries per strategy and letter set, through
// both implementations against identical upstreams, must agree on every
// Result, every SRTT, the counters and the letter shares. Minutes start
// negative, the cache is flushed mid-stream, and two of the upstreams
// answer with infinite and NaN RTTs.
func TestResolveMatchesMapReference(t *testing.T) {
	for _, strat := range []Strategy{PreferFastest, RoundRobin, Uniform} {
		for _, letters := range refLetterSets {
			for _, up := range []struct {
				name    string
				special []float64
				queries int
			}{{"finite", nil, 100_000}, {"inf", infRTTs, 20_000}, {"nan", nanRTTs, 20_000}} {
				cfg := DefaultConfig(7)
				cfg.Strategy = strat
				cfg.Letters = []byte(letters)
				cfg.CacheTTLMinutes = 30
				d, err := newDiffer(cfg, 99, up.special)
				if err != nil {
					t.Fatal(err)
				}
				pick := rand.New(rand.NewSource(3))
				for q := 0; q < up.queries; q++ {
					if err := d.resolve(pick.Intn(2000), q/40-100); err != nil {
						t.Fatalf("%v %q %s query %d: %v", strat, letters, up.name, q, err)
					}
					if q%5000 == 0 {
						d.flush()
					}
				}
				if err := d.final(); err != nil {
					t.Errorf("%v %q %s: %v", strat, letters, up.name, err)
				}
				if up.special != nil && strat == PreferFastest && letters == refLetterSets[0] {
					nan := math.IsNaN(d.got.SRTT('A'))
					for _, l := range cfg.Letters {
						nan = nan || math.IsNaN(d.got.SRTT(l))
					}
					if nan != (up.name == "nan") {
						t.Errorf("%s upstream: some SRTT is NaN = %v", up.name, nan)
					}
				}
			}
		}
	}
}

// FuzzResolveMatchesReference is TestResolveMatchesMapReference over
// fuzzed configurations and query streams: data[0..3] pick the seeds, the
// strategy, the exploration rate, the letter set, the upstream's special
// RTTs and the cache TTL; every further byte is a query (name ID in the
// low 5 bits, a minute step of -2..+5 in the high 3) or, at 0xff, a cache
// flush. Minutes start at -100.
func FuzzResolveMatchesReference(f *testing.F) {
	f.Add([]byte{7, 0, 0, 30, 1, 2, 3, 0x21, 0x42, 0xff, 1, 0xe3})
	f.Add([]byte{1, 4, 5, 5, 0, 0, 0, 0, 0x80, 0x80, 0x80, 0})
	f.Add([]byte{2, 2, 10, 0, 9, 9, 0xff, 9, 0x20})
	f.Add([]byte{3, 0, 1, 10, 0, 1, 2, 0x20, 0x21, 0x40, 0x62})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 || len(data) > 256 {
			return
		}
		cfg := DefaultConfig(int64(data[0]))
		cfg.Strategy = Strategy(data[1] % 3)
		cfg.ExploreProb = []float64{0.05, 0, 0.5}[data[1]/3%3]
		cfg.Letters = []byte(refLetterSets[data[2]%3])
		special := [][]float64{nil, infRTTs, nanRTTs}[data[2]/3%3]
		cfg.CacheTTLMinutes = int(data[3] % 64)
		d, err := newDiffer(cfg, int64(data[3]), special)
		if err != nil {
			t.Fatal(err)
		}
		minute := -100
		for i, b := range data[4:] {
			if b == 0xff {
				d.flush()
				continue
			}
			minute += int(b>>5) - 2
			if err := d.resolve(int(b&31), minute); err != nil {
				t.Fatalf("query %d: %v", i, err)
			}
		}
		if err := d.final(); err != nil {
			t.Fatal(err)
		}
	})
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
			r.Resolve(0, 0, up) // the one cache growth this name will ever need
			minute := 0
			if n := testing.AllocsPerRun(200, func() {
				minute++
				if res := r.Resolve(0, minute, up); res.Cached || res.Attempts == 0 {
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
