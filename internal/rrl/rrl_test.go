package rrl

import (
	"math"
	"sync"
	"testing"
)

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{ResponsesPerSecond: 0},
		{ResponsesPerSecond: -1},
		{ResponsesPerSecond: 5, Burst: -1},
		{ResponsesPerSecond: 5, PrefixBits: 40},
		{ResponsesPerSecond: 5, MaxEntries: -2},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d should fail: %+v", i, cfg)
		}
	}
	l, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if l == nil {
		t.Fatal("nil limiter")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on bad config")
		}
	}()
	MustNew(Config{})
}

func TestBurstThenLimit(t *testing.T) {
	l := MustNew(Config{ResponsesPerSecond: 5, Burst: 10, SlipRatio: 0})
	src := uint32(0xC0A80001)
	for i := 0; i < 10; i++ {
		if got := l.Check(src, 0); got != Send {
			t.Fatalf("response %d = %v, want Send (burst)", i, got)
		}
	}
	if got := l.Check(src, 0); got != Drop {
		t.Errorf("post-burst = %v, want Drop", got)
	}
	sent, dropped, slipped := l.Stats()
	if sent != 10 || dropped != 1 || slipped != 0 {
		t.Errorf("stats = %d/%d/%d", sent, dropped, slipped)
	}
}

func TestRefillOverTime(t *testing.T) {
	l := MustNew(Config{ResponsesPerSecond: 2, Burst: 2, SlipRatio: 0})
	src := uint32(1) << 24
	l.Check(src, 0)
	l.Check(src, 0)
	if got := l.Check(src, 0); got != Drop {
		t.Fatalf("bucket should be empty, got %v", got)
	}
	// After 1 second, 2 tokens refill.
	if got := l.Check(src, 1000); got != Send {
		t.Errorf("after refill = %v, want Send", got)
	}
	if got := l.Check(src, 1000); got != Send {
		t.Errorf("second refill token = %v, want Send", got)
	}
	if got := l.Check(src, 1000); got != Drop {
		t.Errorf("exhausted again = %v, want Drop", got)
	}
}

func TestSlipEveryN(t *testing.T) {
	l := MustNew(Config{ResponsesPerSecond: 1, Burst: 1, SlipRatio: 2})
	src := uint32(7) << 24
	if l.Check(src, 0) != Send {
		t.Fatal("first should send")
	}
	// Suppressed responses alternate Slip (every 2nd) and Drop.
	got := []Action{l.Check(src, 0), l.Check(src, 0), l.Check(src, 0), l.Check(src, 0)}
	want := []Action{Drop, Slip, Drop, Slip}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("suppressed %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestPrefixAggregation(t *testing.T) {
	l := MustNew(Config{ResponsesPerSecond: 1, Burst: 1, SlipRatio: 0, PrefixBits: 24})
	// Two hosts in the same /24 share one bucket.
	a, b := uint32(0x0A000001), uint32(0x0A0000FE)
	if l.Check(a, 0) != Send {
		t.Fatal("first in prefix should send")
	}
	if got := l.Check(b, 0); got != Drop {
		t.Errorf("same /24 neighbor = %v, want Drop (shared bucket)", got)
	}
	// A different /24 has its own bucket.
	if got := l.Check(uint32(0x0A000101), 0); got != Send {
		t.Errorf("different /24 = %v, want Send", got)
	}
	if l.Entries() != 2 {
		t.Errorf("entries = %d, want 2", l.Entries())
	}
}

func TestEvictionBoundsState(t *testing.T) {
	l := MustNew(Config{ResponsesPerSecond: 1, Burst: 1, SlipRatio: 0, MaxEntries: 100, PrefixBits: 32})
	// A spoofed flood of unique sources must not grow state unboundedly.
	for i := uint32(0); i < 10_000; i++ {
		l.Check(i, int64(i))
	}
	if l.Entries() > 101 {
		t.Errorf("entries = %d, want <= 101", l.Entries())
	}
}

func TestConcurrentAccess(t *testing.T) {
	l := MustNew(DefaultConfig())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				l.Check(uint32(w)<<24|uint32(i%50), int64(i))
			}
		}(w)
	}
	wg.Wait()
	sent, dropped, slipped := l.Stats()
	if sent+dropped+slipped != 16000 {
		t.Errorf("verdicts = %d, want 16000", sent+dropped+slipped)
	}
}

func TestSuppressionModelCalibration(t *testing.T) {
	// Full flood suppresses ~60% of responses (Verisign, §2.3).
	got := SuppressionModel(1)
	if math.Abs(got-0.6) > 0.02 {
		t.Errorf("SuppressionModel(1) = %v, want ~0.60", got)
	}
	if SuppressionModel(0) != 0 {
		t.Error("no flood should mean no suppression")
	}
	if SuppressionModel(-1) != 0 {
		t.Error("negative flood fraction should clamp to 0")
	}
	if SuppressionModel(2) != SuppressionModel(1) {
		t.Error("flood fraction should clamp to 1")
	}
	if SuppressionModel(0.5) >= SuppressionModel(1) {
		t.Error("suppression should grow with flood fraction")
	}
}

func TestActionString(t *testing.T) {
	if Send.String() != "send" || Drop.String() != "drop" || Slip.String() != "slip" || Action(9).String() != "unknown" {
		t.Error("Action strings")
	}
}

// The Check benches time only Check: limiter construction and the first
// bucket insert stay outside the timer, so a quick -benchtime=1x run reports
// the steady-state allocations.
func BenchmarkCheckHotPrefix(b *testing.B) {
	l := MustNew(DefaultConfig())
	l.Check(0x0A000001, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Check(0x0A000001, int64(i))
	}
}

func BenchmarkCheckSpoofedFlood(b *testing.B) {
	l := MustNew(DefaultConfig())
	l.Check(0xFFFFFF00, 0) // a prefix outside the flood: sizes the table
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Check(uint32(i)*2654435761, int64(i/1000))
	}
}
