// Package stats provides the small statistical toolkit the analysis pipeline
// relies on: order statistics, histograms, linear regression, and time-series
// binning. Everything operates on float64 slices and is allocation-conscious
// so the per-figure analyses stay cheap even on full-scale datasets.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by estimators that need at least one sample.
var ErrEmpty = errors.New("stats: empty input")

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Median returns the median of xs without modifying it.
// It returns 0 for empty input.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between closest ranks. The input is not modified.
// It returns 0 for empty input.
func Quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return xs[0]
	}
	sorted := make([]float64, n)
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// MinMax returns the minimum and maximum of xs. It returns ErrEmpty for
// empty input.
func MinMax(xs []float64) (min, max float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max, nil
}

// LinearFit holds the result of an ordinary-least-squares fit y = a + b*x.
type LinearFit struct {
	Intercept float64 // a
	Slope     float64 // b
	R2        float64 // coefficient of determination
	N         int     // number of points
}

// Linear fits y = a + b*x by ordinary least squares and reports R².
// The paper uses this to report the R²=0.87 correlation between a letter's
// site count and its worst-case responsiveness (§3.2.1).
func Linear(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, errors.New("stats: mismatched lengths")
	}
	n := len(xs)
	if n < 2 {
		return LinearFit{}, ErrEmpty
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, errors.New("stats: degenerate x values")
	}
	b := sxy / sxx
	fit := LinearFit{Intercept: my - b*mx, Slope: b, N: n}
	if syy > 0 {
		fit.R2 = (sxy * sxy) / (sxx * syy)
	} else {
		fit.R2 = 1 // y constant and perfectly "explained"
	}
	return fit, nil
}

// Histogram counts values into fixed-width bins starting at Origin.
// Values below Origin are clamped into the first bin; values beyond the last
// bin are clamped into the last. RSSAC-002 reports query/response sizes in
// 16-byte bins (§3.1); this type reproduces that representation.
type Histogram struct {
	Origin float64
	Width  float64
	Counts []int64
}

// NewHistogram creates a histogram of n bins of the given width starting at
// origin. It panics if width <= 0 or n <= 0 (configuration error).
func NewHistogram(origin, width float64, n int) *Histogram {
	if width <= 0 || n <= 0 {
		panic("stats: invalid histogram shape")
	}
	return &Histogram{Origin: origin, Width: width, Counts: make([]int64, n)}
}

// Add increments the bin containing x by w.
func (h *Histogram) Add(x float64, w int64) {
	h.Counts[h.Bin(x)] += w
}

// Bin returns the index of the bin containing x; values outside the range
// fall into the first or the last bin.
func (h *Histogram) Bin(x float64) int {
	i := int(math.Floor((x - h.Origin) / h.Width))
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	return i
}

// Total returns the sum of all bin counts.
func (h *Histogram) Total() int64 {
	var t int64
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// ArgMax returns the index of the fullest bin (the "unusually popular bin"
// heuristic the paper uses to identify attack query sizes in RSSAC data).
func (h *Histogram) ArgMax() int {
	best := 0
	for i, c := range h.Counts {
		if c > h.Counts[best] {
			best = i
		}
	}
	return best
}

// BinRange returns the [lo, hi) value range of bin i.
func (h *Histogram) BinRange(i int) (lo, hi float64) {
	lo = h.Origin + float64(i)*h.Width
	return lo, lo + h.Width
}
