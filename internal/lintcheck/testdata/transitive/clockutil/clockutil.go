// Package clockutil is the leaf of the transitive fixture: the only direct
// time.Now call, two frames below the entry points.
package clockutil

import "time"

// Stamp reads the wall clock.
func Stamp() int64 {
	return time.Now().UnixNano() // want wallclock at the site itself (line 9)
}

// Age reads the wall clock through time.Since.
func Age() int64 {
	return int64(time.Since(time.Time{})) // want wallclock at the site itself (line 14)
}

// Left reads the wall clock through time.Until.
func Left() int64 {
	return int64(time.Until(time.Time{})) // want wallclock at the site itself (line 19)
}
