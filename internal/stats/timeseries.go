package stats

import "errors"

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
