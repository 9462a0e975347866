// Package determinism is a repolint fixture: every function below violates
// one determinism rule. The expected diagnostics are asserted, with exact
// line numbers, in internal/lintcheck/lintcheck_test.go — keep the two in
// sync when editing.
package determinism

import (
	"math/rand"
	"sort"
	"time"
)

// WallClock leaks the wall clock into the simulation plane.
func WallClock() int64 {
	return time.Now().UnixNano() // want wallclock (line 15)
}

// GlobalRand draws from the shared global source.
func GlobalRand() int64 {
	return rand.Int63() // want globalrand (line 20)
}

// HiddenSeed constructs an RNG whose seed is not visible at the call site.
func HiddenSeed(src rand.Source) *rand.Rand {
	return rand.New(src) // want unseededrand (line 25)
}

// Keys returns map keys in iteration order: freshly randomized every run.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m { // want maprange (line 31)
		out = append(out, k)
	}
	return out
}

// SortedKeys is the clean counterpart of Keys; no diagnostic expected.
func SortedKeys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Seeded is the clean counterpart of HiddenSeed; no diagnostic expected.
func Seeded(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Elapsed reads the wall clock through time.Since.
func Elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want wallclock (line 54)
}

// Remaining reads the wall clock through time.Until.
func Remaining(t1 time.Time) time.Duration {
	return time.Until(t1) // want wallclock (line 59)
}
