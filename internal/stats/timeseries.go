package stats

import (
	"errors"
	"fmt"
)

// Series is a regularly sampled time series: Values[i] is the value of the
// bin starting at StartMinute + i*BinMinutes (minutes since the simulation
// epoch, 2015-11-30T00:00Z).
//
// All of the paper's figures are time series in 10-minute bins over the two
// event days; Series is the common currency between the analysis and report
// packages.
type Series struct {
	Name        string
	StartMinute int
	BinMinutes  int
	Values      []float64
}

// NewSeries allocates a zeroed series of n bins.
func NewSeries(name string, startMinute, binMinutes, n int) *Series {
	if binMinutes <= 0 || n < 0 {
		panic("stats: invalid series shape")
	}
	return &Series{Name: name, StartMinute: startMinute, BinMinutes: binMinutes, Values: make([]float64, n)}
}

// Bins returns the number of bins.
func (s *Series) Bins() int { return len(s.Values) }

// BinFor returns the bin index containing the given absolute minute, and
// whether it falls inside the series.
func (s *Series) BinFor(minute int) (int, bool) {
	i := (minute - s.StartMinute) / s.BinMinutes
	if minute < s.StartMinute || i >= len(s.Values) {
		return 0, false
	}
	return i, true
}

// MinuteFor returns the starting absolute minute of bin i.
func (s *Series) MinuteFor(i int) int { return s.StartMinute + i*s.BinMinutes }

// Min returns the minimum value and its bin index; ErrEmpty if no bins.
func (s *Series) Min() (float64, int, error) {
	if len(s.Values) == 0 {
		return 0, 0, ErrEmpty
	}
	best := 0
	for i, v := range s.Values {
		if v < s.Values[best] {
			best = i
		}
	}
	return s.Values[best], best, nil
}

// Max returns the maximum value and its bin index; ErrEmpty if no bins.
func (s *Series) Max() (float64, int, error) {
	if len(s.Values) == 0 {
		return 0, 0, ErrEmpty
	}
	best := 0
	for i, v := range s.Values {
		if v > s.Values[best] {
			best = i
		}
	}
	return s.Values[best], best, nil
}

// Median returns the median bin value.
func (s *Series) Median() float64 { return Median(s.Values) }

// Clone returns a copy of the series that shares nothing with it.
func (s *Series) Clone() *Series {
	c := *s
	c.Values = append([]float64(nil), s.Values...)
	return &c
}

// Normalize returns a new series with every value divided by d. It returns
// an error when d == 0; the caller decides how to treat empty catchments
// (the paper excludes sites with medians below its 20-VP threshold).
func (s *Series) Normalize(d float64) (*Series, error) {
	if d == 0 {
		return nil, errors.New("stats: normalize by zero")
	}
	out := NewSeries(s.Name, s.StartMinute, s.BinMinutes, len(s.Values))
	for i, v := range s.Values {
		out.Values[i] = v / d
	}
	return out, nil
}

// Slice returns the sub-series covering bins [from, to). It shares the
// underlying array.
func (s *Series) Slice(from, to int) (*Series, error) {
	if from < 0 || to > len(s.Values) || from > to {
		return nil, fmt.Errorf("stats: slice [%d,%d) out of range 0..%d", from, to, len(s.Values))
	}
	return &Series{
		Name:        s.Name,
		StartMinute: s.MinuteFor(from),
		BinMinutes:  s.BinMinutes,
		Values:      s.Values[from:to],
	}, nil
}

// Binner accumulates point observations into fixed-width time bins and can
// report per-bin aggregates. It is the workhorse behind the 10-minute
// binning of Atlas observations (§2.4.1).
type Binner struct {
	startMinute int
	binMinutes  int
	sums        []float64
	counts      []int64
}

// NewBinner creates a binner with n bins of binMinutes width starting at
// startMinute.
func NewBinner(startMinute, binMinutes, n int) *Binner {
	if binMinutes <= 0 || n <= 0 {
		panic("stats: invalid binner shape")
	}
	return &Binner{
		startMinute: startMinute,
		binMinutes:  binMinutes,
		sums:        make([]float64, n),
		counts:      make([]int64, n),
	}
}

// Add records observation v at the given absolute minute. Observations
// outside the range are dropped and reported as false.
func (b *Binner) Add(minute int, v float64) bool {
	i := (minute - b.startMinute) / b.binMinutes
	if minute < b.startMinute || i >= len(b.sums) {
		return false
	}
	b.sums[i] += v
	b.counts[i]++
	return true
}

// Count returns the observation count of bin i.
func (b *Binner) Count(i int) int64 { return b.counts[i] }

// MeanSeries returns the per-bin mean as a Series; empty bins yield NaN-free
// zeros when zeroEmpty is true, else the previous bin's value is carried
// forward (useful for plotting sparse RTT series).
func (b *Binner) MeanSeries(name string, zeroEmpty bool) *Series {
	s := NewSeries(name, b.startMinute, b.binMinutes, len(b.sums))
	var last float64
	for i := range b.sums {
		if b.counts[i] > 0 {
			last = b.sums[i] / float64(b.counts[i])
			s.Values[i] = last
		} else if zeroEmpty {
			s.Values[i] = 0
		} else {
			s.Values[i] = last
		}
	}
	return s
}

// CountSeries returns the per-bin observation counts as a Series.
func (b *Binner) CountSeries(name string) *Series {
	s := NewSeries(name, b.startMinute, b.binMinutes, len(b.sums))
	for i, c := range b.counts {
		s.Values[i] = float64(c)
	}
	return s
}
