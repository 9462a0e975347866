package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	tests := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, tt := range tests {
		if got := Mean(tt.in); !almostEqual(got, tt.want) {
			t.Errorf("Mean(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestMedianOddEven(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); !almostEqual(got, 2) {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); !almostEqual(got, 2.5) {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := Median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	in := []float64{9, 1, 5}
	Median(in)
	if in[0] != 9 || in[1] != 1 || in[2] != 5 {
		t.Errorf("Median mutated input: %v", in)
	}
}

func TestQuantileEndpoints(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	if got := Quantile(xs, 0); got != 10 {
		t.Errorf("q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 40 {
		t.Errorf("q1 = %v", got)
	}
	if got := Quantile(xs, 0.5); !almostEqual(got, 25) {
		t.Errorf("q0.5 = %v, want 25", got)
	}
}

func TestMinMax(t *testing.T) {
	min, max, err := MinMax([]float64{3, -1, 7, 2})
	if err != nil || min != -1 || max != 7 {
		t.Errorf("MinMax = %v,%v,%v", min, max, err)
	}
	if _, _, err := MinMax(nil); err != ErrEmpty {
		t.Errorf("empty MinMax err = %v, want ErrEmpty", err)
	}
}

func TestLinearPerfectFit(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{3, 5, 7, 9, 11} // y = 1 + 2x
	fit, err := Linear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Slope, 2) || !almostEqual(fit.Intercept, 1) {
		t.Errorf("fit = %+v, want slope 2 intercept 1", fit)
	}
	if !almostEqual(fit.R2, 1) {
		t.Errorf("R2 = %v, want 1", fit.R2)
	}
}

func TestLinearNoise(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6}
	ys := []float64{2.1, 3.9, 6.2, 7.8, 10.1, 11.9}
	fit, err := Linear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if fit.R2 < 0.99 {
		t.Errorf("R2 = %v, want > 0.99 for near-linear data", fit.R2)
	}
	if fit.Slope < 1.8 || fit.Slope > 2.2 {
		t.Errorf("slope = %v, want ~2", fit.Slope)
	}
}

func TestLinearErrors(t *testing.T) {
	if _, err := Linear([]float64{1}, []float64{1}); err == nil {
		t.Error("want error for n<2")
	}
	if _, err := Linear([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("want error for mismatched lengths")
	}
	if _, err := Linear([]float64{3, 3}, []float64{1, 2}); err == nil {
		t.Error("want error for degenerate x")
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(0, 16, 64) // RSSAC-style 16-byte bins
	h.Add(35, 100)               // 32-47 bin => index 2
	h.Add(490, 50)               // index 30
	h.Add(-5, 1)                 // clamped to bin 0
	h.Add(1e9, 1)                // clamped to last bin
	if h.Counts[2] != 100 {
		t.Errorf("bin 2 = %d, want 100", h.Counts[2])
	}
	if h.Counts[30] != 50 {
		t.Errorf("bin 30 = %d, want 50", h.Counts[30])
	}
	if h.Counts[0] != 1 || h.Counts[63] != 1 {
		t.Error("clamping failed")
	}
	if h.Total() != 152 {
		t.Errorf("Total = %d, want 152", h.Total())
	}
	if h.ArgMax() != 2 {
		t.Errorf("ArgMax = %d, want 2", h.ArgMax())
	}
	lo, hi := h.BinRange(2)
	if lo != 32 || hi != 48 {
		t.Errorf("BinRange(2) = %v,%v", lo, hi)
	}
}

// Property: Quantile is monotone in q and bounded by min/max.
func TestQuantileProperties(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		q1 = math.Abs(math.Mod(q1, 1))
		q2 = math.Abs(math.Mod(q2, 1))
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		v1, v2 := Quantile(xs, q1), Quantile(xs, q2)
		min, max, _ := MinMax(xs)
		return v1 <= v2+1e-9 && v1 >= min-1e-9 && v2 <= max+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: histogram Total equals the sum of added weights regardless of
// value placement (conservation).
func TestHistogramConservation(t *testing.T) {
	f := func(vals []float64, weights []uint8) bool {
		h := NewHistogram(0, 10, 32)
		n := len(vals)
		if len(weights) < n {
			n = len(weights)
		}
		var want int64
		for i := 0; i < n; i++ {
			v := vals[i]
			if math.IsNaN(v) {
				continue
			}
			h.Add(v, int64(weights[i]))
			want += int64(weights[i])
		}
		return h.Total() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
