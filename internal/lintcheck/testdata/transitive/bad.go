// Package transitive is a repolint fixture: the wall clock and the global
// rand source are reached only through call chains — two intermediate
// functions and a devirtualized interface method — never directly from the
// entry points. The expected diagnostics, with exact line numbers, are
// asserted in internal/lintcheck/lintcheck_test.go.
package transitive

import (
	"math/rand"

	"github.com/rootevent/anycastddos/internal/lintcheck/testdata/transitive/clockutil"
)

// ticker abstracts a time source; the analyzer devirtualizes Tick to every
// loaded implementation.
type ticker interface {
	Tick() int64
}

// wallTicker implements ticker on top of the wall clock, one package down.
type wallTicker struct{}

func (wallTicker) Tick() int64 {
	return clockutil.Stamp() // want transitive wallclock for root Tick (line 24)
}

// Entry is the engine entry point: time.Now is three frames away, behind an
// interface call.
func Entry(t ticker) int64 {
	return timestamp(t) // want transitive wallclock for root Entry (line 30)
}

func timestamp(t ticker) int64 {
	return t.Tick() // want transitive wallclock for root timestamp (line 34)
}

// Jitter reaches the global rand source through one helper.
func Jitter() float64 {
	return draw() // want transitive globalrand for root Jitter (line 39)
}

func draw() float64 {
	return rand.Float64() // want globalrand at the site itself (line 43)
}

// Uptime reaches time.Since through one call.
func Uptime() int64 {
	return clockutil.Age() // want transitive wallclock for root Uptime (line 48)
}

// Deadline reaches time.Until through one call.
func Deadline() int64 {
	return clockutil.Left() // want transitive wallclock for root Deadline (line 53)
}
