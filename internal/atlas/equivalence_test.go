package atlas

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/rootevent/anycastddos/internal/stats"
)

// The row-reference equivalence suite lives in equivalence_ext_test.go
// (package atlas_test) so it can share the seed's row store through
// internal/atlas/atlastest with the root-level 9k replay test. The tests
// below stay in-package because they reach unexported internals (the row
// writer, medianU16).

// TestRawCursorUnsealed exercises the wide-column path of RawRows on a
// hand-built, never-sealed dataset.
func TestRawCursorUnsealed(t *testing.T) {
	d := NewDataset([]byte("K"), []byte("K"), 2, 0, 10, 2, 4)
	d.record(0, 'K', 0, 3, 2, OK, 25)
	d.record(1, 'K', 4, 1, 1, OK, 50)
	raw, err := d.RawRows('K')
	if err != nil {
		t.Fatal(err)
	}
	if !raw.Next() {
		t.Fatal("no first VP")
	}
	if raw.Site(0) != 3 || raw.Server(0) != 2 {
		t.Errorf("unsealed raw cell = site %d server %d, want 3/2", raw.Site(0), raw.Server(0))
	}
	d.Seal()
	raw2, err := d.RawRows('K')
	if err != nil {
		t.Fatal(err)
	}
	if !raw2.Next() {
		t.Fatal("no first VP after seal")
	}
	if raw2.Site(0) != 3 || raw2.Server(0) != 2 {
		t.Errorf("sealed raw cell = site %d server %d, want 3/2", raw2.Site(0), raw2.Server(0))
	}
	// NoSite plus the two recorded pairs.
	if n := len(d.SiteServers()); n != 3 {
		t.Errorf("interned pairs = %d, want 3", n)
	}
}

// TestMedianSortedU16MatchesStatsMedian fuzzes the specialized integer
// median against the general stats.Median it must reproduce bit-for-bit.
func TestMedianSortedU16MatchesStatsMedian(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(40)
		xs := make([]uint16, n)
		fs := make([]float64, n)
		for i := range xs {
			xs[i] = uint16(rng.Intn(65536))
			fs[i] = float64(xs[i])
		}
		want := stats.Median(fs)
		// medianSortedU16 needs sorted input.
		sortU16(xs)
		got := medianSortedU16(xs)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d (n=%d): medianSortedU16 = %v, stats.Median = %v", trial, n, got, want)
		}
	}
}

func sortU16(xs []uint16) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// medianSortedU16 is the sort-based median the columnar store used before it
// selected by counting: the median of an ascending-sorted uint16 slice. It
// stays as the oracle medianU16 is pinned to.
func medianSortedU16(seg []uint16) float64 {
	n := len(seg)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return float64(seg[n/2])
	}
	return float64(seg[n/2-1])*0.5 + float64(seg[n/2])*0.5
}

// TestMedianU16MatchesSortedMedian pins the counting selection to the sorted
// median and to stats.Median, bit for bit: every length parity, heavy ties,
// values confined to one high-byte bucket and values across the whole range
// including the overflow sentinel.
func TestMedianU16MatchesSortedMedian(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	spreads := []int{1, 2, 7, 256, 300, 5000, 65536}
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(70)
		if trial%50 == 0 {
			n = 1000 + rng.Intn(1000)
		}
		spread := spreads[trial%len(spreads)]
		base := rng.Intn(65536 - spread + 1)
		xs := make([]uint16, n)
		fs := make([]float64, n)
		for i := range xs {
			xs[i] = uint16(base + rng.Intn(spread))
			fs[i] = float64(xs[i])
		}
		orig := slices.Clone(xs)
		got := medianU16(xs)
		if !slices.Equal(xs, orig) {
			t.Fatalf("trial %d: medianU16 reordered its input", trial)
		}
		slices.Sort(xs)
		if want := medianSortedU16(xs); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d (n=%d spread=%d): medianU16 = %v, sorted median = %v", trial, n, spread, got, want)
		}
		if want := stats.Median(fs); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d (n=%d spread=%d): medianU16 = %v, stats.Median = %v", trial, n, spread, got, want)
		}
	}
}
