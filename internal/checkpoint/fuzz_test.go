package checkpoint

import (
	"errors"
	"testing"
)

// FuzzDecode asserts the hostile-input contract of the one decoder behind
// both standalone snapshots and log records: any byte string
// either decodes cleanly and re-encodes to the identical bytes, or fails
// with an error wrapping ErrCorrupt or ErrVersion. It must never panic and
// never allocate proportionally to a corrupted length prefix.
func FuzzDecode(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte(magic))
	good := Encode(sampleSnapshot(40))
	f.Add(good)
	f.Add(good[:len(good)-1])
	f.Add(good[:len(good)/3])
	f.Add(flipBit(good, len(good)/4))
	f.Add(reversion(good, Version+7))
	f.Add(Encode(&Snapshot{Minute: 0}))
	f.Add(Encode(sampleRecord(30, 40)))
	// Every seed above changes every minute; this one leaves most mask
	// bits clear.
	f.Add(Encode(stepped(sampleSnapshot(40), 8)))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("non-sentinel decode error: %v", err)
			}
			return
		}
		// Valid input must round-trip to the same bytes (the encoding is
		// canonical), which also re-exercises Encode on fuzz-found states.
		re := Encode(s)
		if string(re) != string(data) {
			t.Fatalf("decode/encode not canonical: %d bytes in, %d out", len(data), len(re))
		}
	})
}
