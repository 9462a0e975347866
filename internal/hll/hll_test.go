package hll

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// newSketch is New for the constant precisions the tests use.
func newSketch(t testing.TB, p uint8) *Sketch {
	t.Helper()
	s, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// addUint32 inserts v as its 4 big-endian bytes (e.g. an IPv4 address).
func addUint32(s *Sketch, v uint32) {
	var buf [4]byte
	binary.BigEndian.PutUint32(buf[:], v)
	s.Add(buf[:])
}

func TestNewPrecisionBounds(t *testing.T) {
	for _, p := range []uint8{0, 1, 3, 17, 64} {
		if _, err := New(p); err == nil {
			t.Errorf("New(%d) should fail", p)
		}
	}
	for _, p := range []uint8{4, 10, 14, 16} {
		s, err := New(p)
		if err != nil {
			t.Errorf("New(%d): %v", p, err)
			continue
		}
		if s.p != p || len(s.registers) != 1<<p {
			t.Errorf("New(%d) = precision %d with %d registers", p, s.p, len(s.registers))
		}
	}
}

func TestEmptyEstimate(t *testing.T) {
	s := newSketch(t, 12)
	if got := s.Estimate(); got != 0 {
		t.Errorf("empty Estimate = %v, want 0", got)
	}
}

func TestSmallExactish(t *testing.T) {
	// Linear counting regime: small cardinalities should be near exact.
	s := newSketch(t, 12)
	for i := 0; i < 100; i++ {
		s.Add([]byte(fmt.Sprintf("item-%d", i)))
	}
	got := s.Estimate()
	if math.Abs(got-100) > 5 {
		t.Errorf("estimate = %v, want ~100", got)
	}
}

func TestDuplicatesDoNotInflate(t *testing.T) {
	s := newSketch(t, 12)
	for i := 0; i < 1000; i++ {
		s.Add([]byte("same-item"))
	}
	if got := math.Round(s.Estimate()); got != 1 {
		t.Errorf("Estimate = %v, want 1", got)
	}
}

func TestLargeCardinalityAccuracy(t *testing.T) {
	s := newSketch(t, 14) // ~0.8% standard error
	const n = 500000
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < n; i++ {
		addUint32(s, rng.Uint32())
	}
	// Random uint32 draws collide slightly; expected distinct ≈ n - n²/2³³.
	expected := float64(n) - float64(n)*float64(n)/math.Pow(2, 33)
	got := s.Estimate()
	relErr := math.Abs(got-expected) / expected
	if relErr > 0.03 {
		t.Errorf("estimate = %.0f, expected ~%.0f (rel err %.3f > 0.03)", got, expected, relErr)
	}
}

// Property: adding more items never decreases the estimate (monotonicity).
func TestMonotonicity(t *testing.T) {
	f := func(items []uint32) bool {
		s := newSketch(t, 10)
		prev := 0.0
		for _, it := range items {
			addUint32(s, it)
			e := s.Estimate()
			if e+1e-9 < prev {
				return false
			}
			prev = e
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAdd(b *testing.B) {
	s := newSketch(b, 14)
	for i := 0; i < b.N; i++ {
		addUint32(s, uint32(i*2654435761))
	}
}

func BenchmarkEstimate(b *testing.B) {
	s := newSketch(b, 14)
	for i := 0; i < 100000; i++ {
		addUint32(s, uint32(i*2654435761))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Estimate()
	}
}
