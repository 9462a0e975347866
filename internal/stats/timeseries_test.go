package stats

import (
	"testing"
	"testing/quick"
)

func TestSeriesBinFor(t *testing.T) {
	s := NewSeries("x", 100, 10, 5) // covers minutes [100,150)
	tests := []struct {
		minute int
		bin    int
		ok     bool
	}{
		{100, 0, true},
		{109, 0, true},
		{110, 1, true},
		{149, 4, true},
		{150, 0, false},
		{99, 0, false},
		{0, 0, false},
	}
	for _, tt := range tests {
		bin, ok := s.BinFor(tt.minute)
		if ok != tt.ok || (ok && bin != tt.bin) {
			t.Errorf("BinFor(%d) = %d,%v want %d,%v", tt.minute, bin, ok, tt.bin, tt.ok)
		}
	}
	if s.MinuteFor(3) != 130 {
		t.Errorf("MinuteFor(3) = %d", s.MinuteFor(3))
	}
}

func TestSeriesMinMaxMedian(t *testing.T) {
	s := NewSeries("x", 0, 10, 4)
	copy(s.Values, []float64{5, 1, 9, 3})
	min, mi, err := s.Min()
	if err != nil || min != 1 || mi != 1 {
		t.Errorf("Min = %v@%d err %v", min, mi, err)
	}
	max, xi, err := s.Max()
	if err != nil || max != 9 || xi != 2 {
		t.Errorf("Max = %v@%d err %v", max, xi, err)
	}
	if m := s.Median(); m != 4 {
		t.Errorf("Median = %v, want 4", m)
	}
	empty := NewSeries("e", 0, 10, 0)
	if _, _, err := empty.Min(); err != ErrEmpty {
		t.Error("empty Min should return ErrEmpty")
	}
	if _, _, err := empty.Max(); err != ErrEmpty {
		t.Error("empty Max should return ErrEmpty")
	}
}

func TestSeriesNormalize(t *testing.T) {
	s := NewSeries("x", 0, 10, 2)
	copy(s.Values, []float64{4, 8})
	n, err := s.Normalize(4)
	if err != nil {
		t.Fatal(err)
	}
	if n.Values[0] != 1 || n.Values[1] != 2 {
		t.Errorf("normalized = %v", n.Values)
	}
	if s.Values[0] != 4 {
		t.Error("Normalize mutated the source")
	}
	if _, err := s.Normalize(0); err == nil {
		t.Error("want error for divide by zero")
	}
}

// Property: every in-range minute maps to exactly one bin and the bin range
// contains the minute.
func TestBinForRoundTrip(t *testing.T) {
	s := NewSeries("x", 50, 7, 100)
	f := func(m uint16) bool {
		minute := int(m)
		bin, ok := s.BinFor(minute)
		if !ok {
			return minute < 50 || minute >= 50+7*100
		}
		start := s.MinuteFor(bin)
		return minute >= start && minute < start+7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
