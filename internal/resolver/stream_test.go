package resolver

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// streamSeeds are seeds rand.NewSource folds in different ways: zero (its
// own default), negative ones, 2³¹−1 (which it folds to zero), and seeds at
// and past 2³¹.
var streamSeeds = []int64{0, 1, 7, -1, -7919, math.MaxInt32, math.MaxInt32 + 1, 1<<40 + 3, math.MaxInt64, math.MinInt64}

// TestStreamSourceMatchesNewSource reads three prefixes' worth of each
// seed's stream — the cached prefix and the continuation past it — and
// requires rand.NewSource(seed)'s values; then the same through rand.Rand's
// mixed draws.
func TestStreamSourceMatchesNewSource(t *testing.T) {
	for _, seed := range streamSeeds {
		got, want := newStreamSource(seed), rand.NewSource(seed).(rand.Source64)
		for i := 0; i < 3*streamPrefixLen; i++ {
			if i%3 == 0 {
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d: Int63 %d = %d, rand.NewSource %d", seed, i, g, w)
				}
				continue
			}
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: Uint64 %d = %d, rand.NewSource %d", seed, i, g, w)
			}
		}
		gr, wr := rand.New(newStreamSource(seed)), rand.New(rand.NewSource(seed))
		gs, ws := make([]int, 13), make([]int, 13)
		for i := 0; i < 2*streamPrefixLen; i++ {
			g := fmt.Sprint(gr.Float64(), gr.Intn(12), gr.Uint64(), gr.Int31n(1000), gr.Perm(3))
			w := fmt.Sprint(wr.Float64(), wr.Intn(12), wr.Uint64(), wr.Int31n(1000), wr.Perm(3))
			gr.Shuffle(len(gs), func(i, j int) { gs[i], gs[j] = gs[j], gs[i] })
			wr.Shuffle(len(ws), func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
			if g != w || fmt.Sprint(gs) != fmt.Sprint(ws) {
				t.Fatalf("seed %d: rand.Rand draw %d: %s %v, over rand.NewSource %s %v", seed, i, g, gs, w, ws)
			}
		}
	}
}

// TestStreamSourceSeed: reseeding restarts the source as the new seed's
// stream, whether it had left the prefix or not.
func TestStreamSourceSeed(t *testing.T) {
	for _, read := range []int{0, 10, streamPrefixLen + 10} {
		s := newStreamSource(1)
		for i := 0; i < read; i++ {
			s.Uint64()
		}
		s.Seed(-7919)
		want := rand.NewSource(-7919).(rand.Source64)
		for i := 0; i < streamPrefixLen+5; i++ {
			if g, w := s.Uint64(), want.Uint64(); g != w {
				t.Fatalf("after %d values and Seed: value %d = %d, rand.NewSource %d", read, i, g, w)
			}
		}
	}
}

// TestStreamCacheConcurrent builds sources from many goroutines at once,
// over more seeds than the cache holds so it is cleared while others read
// it, and checks every stream past its prefix. Run it under -race.
func TestStreamCacheConcurrent(t *testing.T) {
	const goroutines, seeds = 8, streamCacheCap + 40
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < seeds; i++ {
				seed := int64((i*7 + g) % seeds)
				got, want := newStreamSource(seed), rand.NewSource(seed).(rand.Source64)
				n := 8
				if i%32 == g {
					n = streamPrefixLen + 8
				}
				for j := 0; j < n; j++ {
					if a, b := got.Uint64(), want.Uint64(); a != b {
						errs <- fmt.Errorf("seed %d value %d: %d, rand.NewSource %d", seed, j, a, b)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestStreamCacheBounded: the cache never holds more than streamCacheCap
// seeds.
func TestStreamCacheBounded(t *testing.T) {
	for seed := int64(0); seed < 3*streamCacheCap; seed++ {
		streamPrefix(1000 + seed)
		streamPrefixes.mu.Lock()
		n := len(streamPrefixes.m)
		streamPrefixes.mu.Unlock()
		if n > streamCacheCap {
			t.Fatalf("after %d seeds the cache holds %d, cap %d", seed+1, n, streamCacheCap)
		}
	}
}
