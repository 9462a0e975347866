package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/rootevent/anycastddos/internal/stats"
)

// TestStepsAppendOnlyOnChange sets a series minute by minute and requires a
// step exactly where the value's bits change — -0 after +0 and a NaN
// payload included — then looks every minute up: before the first step, at
// and between steps, and past the last one.
func TestStepsAppendOnlyOnChange(t *testing.T) {
	negZero, nan := math.Float64bits(math.Copysign(0, -1)), math.Float64bits(math.NaN())|1
	vals := []uint64{0, 0, 0, math.Float64bits(1.5), math.Float64bits(1.5), negZero,
		nan, nan, 0, math.Float64bits(1e300)}
	var s steps[uint64]
	for m, v := range vals {
		s.set(m, v)
	}
	wantAt := []int32{3, 5, 6, 8, 9}
	wantVal := []uint64{math.Float64bits(1.5), negZero, nan, 0, math.Float64bits(1e300)}
	if !reflect.DeepEqual(s.at, wantAt) || !reflect.DeepEqual(s.val, wantVal) {
		t.Fatalf("steps = %v %x, want %v %x", s.at, s.val, wantAt, wantVal)
	}
	for _, tc := range []struct {
		minute int
		want   uint64
		end    int
	}{
		{-1, 0, 3}, {0, 0, 3}, {2, 0, 3}, // before the first step
		{3, math.Float64bits(1.5), 5}, {4, math.Float64bits(1.5), 5}, // at and between
		{5, negZero, 6}, {6, nan, 8}, {7, nan, 8}, {8, 0, 9},
		{9, math.Float64bits(1e300), math.MaxInt}, {500, math.Float64bits(1e300), math.MaxInt}, // past the last
	} {
		if got := s.get(tc.minute); got != tc.want {
			t.Errorf("get(%d) = %x, want %x", tc.minute, got, tc.want)
		}
		if got, end := s.span(tc.minute); got != tc.want || end != tc.end {
			t.Errorf("span(%d) = %x, %d, want %x, %d", tc.minute, got, end, tc.want, tc.end)
		}
	}

	var empty steps[siteState]
	if got, end := empty.span(7); got != (siteState{}) || end != math.MaxInt {
		t.Errorf("empty span(7) = %+v, %d", got, end)
	}
	var sites steps[siteState]
	for m := 0; m < 4; m++ {
		sites.set(m, withdrawnSite)
	}
	sites.set(4, siteState{route: true, loss: math.Float32bits(1)})
	if len(sites.at) != 2 || sites.get(3) != withdrawnSite || !sites.get(4).route {
		t.Errorf("site steps %v %+v: a route with loss 1 must step away from withdrawn", sites.at, sites.val)
	}
}

// siteRows expands a letter's site series into dense [site][minute] rows.
func siteRows(ev *Evaluator, ls *letterState) (loss, delay [][]float32, route [][]bool) {
	for si := range ls.sites {
		l, d, r := make([]float32, ev.Cfg.Minutes), make([]float32, ev.Cfg.Minutes), make([]bool, ev.Cfg.Minutes)
		for m := range r {
			st := ls.sites[si].get(m)
			l[m], d[m], r[m] = math.Float32frombits(st.loss), math.Float32frombits(st.delay), st.route
		}
		loss, delay, route = append(loss, l), append(delay, d), append(route, r)
	}
	return loss, delay, route
}

// cityRows expands the evaluator's city excess series into [city][minute].
func cityRows(ev *Evaluator) [][]float64 {
	rows := make([][]float64, len(ev.cityExcess))
	for ci := range rows {
		rows[ci] = make([]float64, ev.Cfg.Minutes)
		for m := range rows[ci] {
			rows[ci][m] = ev.excessAt(int32(ci), m)
		}
	}
	return rows
}

// siteRouteSeries is a site's route, held (1) or withdrawn (0), binned at 10
// minutes: the ground truth behind the reachability figures.
func siteRouteSeries(ev *Evaluator, letter byte, site int) (*stats.Series, error) {
	ls, ok := ev.letters[letter]
	if !ok || site < 0 || site >= len(ls.sites) {
		return nil, fmt.Errorf("core: unknown site %c/%d", letter, site)
	}
	bins := ev.Cfg.Minutes / 10
	s := stats.NewSeries(fmt.Sprintf("route-%c-%d", letter, site), 0, 10, bins)
	for b := 0; b < bins; b++ {
		up := 0
		for m := b * 10; m < (b+1)*10; m++ {
			if ls.sites[site].get(m).route {
				up++
			}
		}
		s.Values[b] = float64(up) / 10
	}
	return s, nil
}
