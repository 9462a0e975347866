package core

import (
	"math"
)

// steps is a per-minute series kept as its change points: val[i] holds from
// minute at[i] until at[i+1], the last value until the horizon, and T's zero
// value before at[0]. The engine writes a minute with set, so a series costs
// its changes, not its minutes. T's == must tell apart every two values a
// reader can: floats are stored as their bit patterns.
type steps[T comparable] struct {
	at  []int32
	val []T
}

// set records v as the value at minute, which must come after every minute
// set before: it appends a step only when v differs from the value in force.
func (s *steps[T]) set(minute int, v T) {
	var cur T
	if n := len(s.val); n > 0 {
		cur = s.val[n-1]
	}
	if v != cur {
		s.at = append(s.at, int32(minute))
		s.val = append(s.val, v)
	}
}

// span returns the value in force at minute and the minute the next step
// replaces it at, math.MaxInt when none does.
//
//repolint:hot
func (s *steps[T]) span(minute int) (v T, end int) {
	// lo ends as the first step after minute. The engine reads the minute it
	// just wrote, so the last step is tried before the search.
	lo, hi := 0, len(s.at)
	if hi > 0 && int(s.at[hi-1]) <= minute {
		lo = hi
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(s.at[mid]) <= minute {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	end = math.MaxInt
	if lo < len(s.at) {
		end = int(s.at[lo])
	}
	if lo > 0 {
		v = s.val[lo-1]
	}
	return v, end
}

// get returns the value in force at minute.
//
//repolint:hot
func (s *steps[T]) get(minute int) T {
	v, _ := s.span(minute)
	return v
}

// each calls fn with every minute in [from, to) and the value in force then,
// in minute order.
func (s *steps[T]) each(from, to int, fn func(minute int, v T)) {
	for m := from; m < to; {
		v, end := s.span(m)
		for end = min(end, to); m < end; m++ {
			fn(m, v)
		}
	}
}

// siteState is a site's service in one minute: whether any of its uplinks
// is announced and, when one is, the queue model's loss fraction and extra
// delay as float32 bit patterns. A withdrawn site is {false, loss 1, delay 0}.
type siteState struct {
	route       bool
	loss, delay uint32
}

// withdrawnSite is the state of a site with no announced uplink.
var withdrawnSite = siteState{loss: math.Float32bits(1)}

func (st siteState) lossFrac() float64 { return float64(math.Float32frombits(st.loss)) }
func (st siteState) delayMs() float64  { return float64(math.Float32frombits(st.delay)) }
