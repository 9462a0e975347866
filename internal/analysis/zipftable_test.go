package analysis

import (
	"math"
	"math/rand"
	"testing"
)

// zipfSets are the (s, v, imax) sets the exactness tests draw from: the
// grid's and rootevent's user-impact workloads (150 and 400 names), the
// degenerate imax 0 and 1, other exponents and offsets, and one set past
// the table's cap, whose top ranks only the slow path draws.
var zipfSets = []struct {
	s, v float64
	imax uint64
}{
	{1.2, 1, 0},
	{1.2, 1, 1},
	{1.2, 1, 149},
	{1.2, 1, 399},
	{2.5, 1, 149},
	{1.01, 3.5, 399},
	{1.1, 2, zipfTableCap + 900},
}

// TestZipfTableMatchesStd draws millions of ranks from zipfTable and from
// rand.Zipf over identically seeded sources: every draw must agree, and
// the sources must stay in step (the same number of Float64 calls).
func TestZipfTableMatchesStd(t *testing.T) {
	draws := 200_000
	if testing.Short() {
		draws = 20_000
	}
	for _, set := range zipfSets {
		for _, seed := range []int64{1, 7, -3} {
			gotRng, wantRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			got := newZipfTable(gotRng, set.s, set.v, set.imax)
			want := rand.NewZipf(wantRng, set.s, set.v, set.imax)
			for i := 0; i < draws; i++ {
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("s=%v v=%v imax=%d seed %d draw %d: table %d, rand.Zipf %d", set.s, set.v, set.imax, seed, i, g, w)
				}
			}
			if g, w := gotRng.Int63(), wantRng.Int63(); g != w {
				t.Fatalf("s=%v v=%v imax=%d seed %d: sources out of step after %d draws", set.s, set.v, set.imax, seed, draws)
			}
		}
	}
}

// TestZipfTableRejectsLikeStd: where rand.NewZipf returns nil, so does
// newZipfTable.
func TestZipfTableRejectsLikeStd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range [][2]float64{{1, 1}, {0.5, 1}, {1.2, 0.99}, {1.2, 1}} {
		if got, want := newZipfTable(rng, p[0], p[1], 10) == nil, rand.NewZipf(rng, p[0], p[1], 10) == nil; got != want {
			t.Errorf("s=%v v=%v: table nil %v, rand.Zipf nil %v", p[0], p[1], got, want)
		}
	}
}

// scriptSource returns its script's Int63 values first, then a splitmix64
// stream from a fixed state: cheap enough to rebuild for every probe.
type scriptSource struct {
	script []int64
	state  uint64
}

func (s *scriptSource) Int63() int64 {
	if len(s.script) > 0 {
		v := s.script[0]
		s.script = s.script[1:]
		return v
	}
	s.state += 0x9e3779b97f4a7c15
	x := s.state
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return int64((x ^ x>>31) >> 1)
}

func (s *scriptSource) Seed(int64) {}

// TestZipfTableBoundaryProbes aims the first draw at every table constant
// of every rank — the rank's lowest ur, the first test's bound and the
// second test's constant — and at one guard band either side of each: a
// scripted source returns the Int63 values whose ur lands on the constant
// (and on its two float neighbours in r) and one band-width away. Every
// probe must draw what rand.Zipf draws from the same script.
func TestZipfTableBoundaryProbes(t *testing.T) {
	for _, set := range zipfSets {
		gotSrc, wantSrc := &scriptSource{}, &scriptSource{}
		got := newZipfTable(rand.New(gotSrc), set.s, set.v, set.imax)
		want := rand.NewZipf(rand.New(wantSrc), set.s, set.v, set.imax)
		probe := func(c float64, what string, k int) {
			r := (c - got.hxm) / got.hx0minusHxm
			if !(r >= 0 && r < 1) {
				return
			}
			p := int64(r * (1 << 63))
			*gotSrc = scriptSource{script: []int64{p}, state: uint64(p)}
			*wantSrc = scriptSource{script: []int64{p}, state: uint64(p)}
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("s=%v v=%v imax=%d: rank %d %s at ur %v (Int63 %d): table %d, rand.Zipf %d",
					set.s, set.v, set.imax, k, what, got.hxm+r*got.hx0minusHxm, p, g, w)
			}
		}
		n := len(got.rank) - 2
		for k, rk := range got.rank[:n+1] {
			bands := [][2]float64{{rk.loBelow, rk.loAbove}, {rk.firstBelow, rk.firstAbove}, {rk.secondBelow, rk.secondAbove}}
			if k == n {
				bands = bands[:1] // rank n holds only the top edge of rank n-1
			}
			for _, b := range bands {
				if math.IsNaN(b[0]) {
					continue
				}
				c := (b[0] + b[1]) / 2
				w := b[1] - c
				probe(c, "on", k)
				// The float neighbours of r, in the direction of each band edge.
				r := (c - got.hxm) / got.hx0minusHxm
				for _, rn := range []float64{math.Nextafter(r, 0), math.Nextafter(r, 1)} {
					probe(got.hxm+rn*got.hx0minusHxm, "next to", k)
				}
				probe(c-w, "one band below", k)
				probe(c+w, "one band above", k)
			}
		}
	}
}

// FuzzZipfTableMatchesStd is TestZipfTableMatchesStd over fuzzed
// exponents, offsets, sizes and seeds.
func FuzzZipfTableMatchesStd(f *testing.F) {
	f.Add(int64(7), 1.2, 1.0, uint64(149))
	f.Add(int64(-1), 1.0001, 1.0, uint64(zipfTableCap+5))
	f.Add(int64(0), 8.0, 100.0, uint64(0))
	f.Add(int64(3), 1.5, 1e6, uint64(399))
	f.Fuzz(func(t *testing.T, seed int64, s, v float64, imax uint64) {
		if math.IsNaN(s) || math.IsNaN(v) || s > 64 || v > 1e12 {
			return
		}
		imax %= 3 * zipfTableCap
		gotRng, wantRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		got := newZipfTable(gotRng, s, v, imax)
		want := rand.NewZipf(wantRng, s, v, imax)
		if (got == nil) != (want == nil) {
			t.Fatalf("table nil %v, rand.Zipf nil %v", got == nil, want == nil)
		}
		if got == nil {
			return
		}
		for i := 0; i < 2000; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("draw %d: table %d, rand.Zipf %d", i, g, w)
			}
		}
	})
}

// BenchmarkZipf is one draw of the grid's name popularity (s 1.2, v 1,
// 150 names) from rand.Zipf and from zipfTable.
func BenchmarkZipf(b *testing.B) {
	b.Run("std", func(b *testing.B) {
		z := rand.NewZipf(rand.New(rand.NewSource(7)), 1.2, 1, 149)
		for i := 0; i < b.N; i++ {
			z.Uint64()
		}
	})
	b.Run("table", func(b *testing.B) {
		z := newZipfTable(rand.New(rand.NewSource(7)), 1.2, 1, 149)
		for i := 0; i < b.N; i++ {
			z.Uint64()
		}
	})
}
