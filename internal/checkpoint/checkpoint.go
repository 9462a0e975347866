// Package checkpoint provides versioned, checksummed checkpoints of the
// evaluation engine's mutable state at minute boundaries, so a long event
// replay killed at minute 140 of 160 resumes from its last checkpoint and
// finishes byte-identical to an uninterrupted run.
//
// A Snapshot is plain data: everything the engine mutates minute to minute
// (announcement state machines, routing-epoch history as effective
// announcement vectors, per-site service-quality series, shared-fabric
// city load, the BGP collector's update stream) plus a digest of the
// configuration that determines the run. Everything *derivable* from the
// configuration — topology, deployment, population, routing tables — is
// deliberately absent: the resuming engine rebuilds it deterministically
// from the same seed and replays the epoch vectors through the same route
// computation, which keeps checkpoints small and the format stable.
//
// Every series a Snapshot holds is append-only once its minute has passed,
// so a checkpoint directory is one append-only log (log.go) on
// internal/ledger's framing: each checkpoint appends one checksummed,
// fsynced record — a Snapshot covering only [From, Minute) plus the small
// mutable head — and costs its interval, not the run so far. LoadLatest
// folds the longest valid, contiguous record prefix back into one full
// Snapshot; resume is deterministic, so any prefix is a valid checkpoint and
// damage costs recomputation, never correctness.
//
// Encode and Decode frame the same record body as a standalone blob (magic,
// version, body, SHA-256 trailer). Decoding never panics on hostile input:
// torn, bit-flipped or version-skewed data wraps ErrCorrupt or ErrVersion.
package checkpoint

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Version is the format version of the record body and the log. Bump it
// whenever the body layout changes; old checkpoints then fail with
// ErrVersion instead of decoding into garbage. (Version 1, full snapshot
// files plus a manifest, is not read: its directories hold no log.)
const Version = 2

// magic identifies a standalone encoded snapshot; fixed across versions.
const magic = "RDNSCKPT"

var (
	// ErrCorrupt marks a torn, truncated, or checksum-failing snapshot.
	ErrCorrupt = errors.New("checkpoint: corrupt snapshot")
	// ErrVersion marks a snapshot written by another format version.
	ErrVersion = errors.New("checkpoint: unsupported snapshot version")
	// ErrNoSnapshot is returned by LoadLatest when a directory holds no
	// usable checkpoint (missing, empty, or corrupt from the first record).
	ErrNoSnapshot = errors.New("checkpoint: no usable snapshot")
)

// Snapshot is the engine state at one minute boundary, or the part of it
// added since an earlier one: Minute is the next minute to execute, every
// per-minute series holds exactly [From, Minute), and Updates and each
// letter's Epochs hold what was appended since the snapshot at From. From = 0
// is a full snapshot (what LoadLatest returns, and a log's first record).
type Snapshot struct {
	// From is the first minute the per-minute series cover.
	From int
	// Minute is the first unexecuted minute of the resumed run.
	Minute int
	// ConfigDigest identifies the run: a hash of the engine configuration,
	// attack schedule, and injected fault plan. Resuming under a different
	// configuration is an error, never a silent divergence.
	ConfigDigest [32]byte
	// CityExcess[city][m] is the shared-fabric over-capacity load, city
	// dimension in the engine's dense city order.
	CityExcess [][]float64
	// Updates is the BGP collector's update stream since From.
	Updates []Update
	// Letters is the per-letter mutable state, in the engine's sorted
	// letter order.
	Letters []Letter
}

// Update mirrors one bgpmon collector observation.
type Update struct {
	Minute int32
	Letter byte
	Peer   int32
	From   int32
	To     int32
}

// Router is the serialized announcement state machine of one uplink.
type Router struct {
	Announced   bool
	OverMinutes int32
	DownSince   int32
}

// Epoch records one routing regime as the effective announcement vector it
// was computed from. Tables are not serialized: route computation is a
// pure function of the vector, so the resuming engine replays the vectors
// through its memoized three-pass solver and lands on bit-identical tables
// and memo entries.
type Epoch struct {
	Start  int32
	Active []bool
}

// Letter is one letter's mutable engine state.
type Letter struct {
	Letter  byte
	Routers []Router
	Active  []bool
	// Overlay reports whether the fault overlay was materialized
	// (EffActive valid); fault-free runs keep it false so the resumed run
	// takes the exact pre-fault code paths.
	Overlay   bool
	EffActive []bool
	Epochs    []Epoch
	// Per-site per-minute service series, [site][minute - From].
	Loss     [][]float32
	Delay    [][]float32
	HasRoute [][]bool
	// Per-minute letter traffic series.
	LegitServed  []float64
	AttackServed []float64
	RetryServed  []float64
	Responses    []float64
}

// Encode serializes the snapshot deterministically: magic, version, body,
// SHA-256 trailer over everything before it.
func Encode(s *Snapshot) []byte {
	e := encoder{buf: make([]byte, 0, sizeBound(s))}
	e.bytes([]byte(magic))
	e.u32(Version)
	e.body(s)
	sum := sha256.Sum256(e.buf)
	return append(e.buf, sum[:]...)
}

// body appends the snapshot's fields: a log record's whole payload, and
// what Encode frames.
func (e *encoder) body(s *Snapshot) {
	e.uvarint(uint64(s.From))
	e.uvarint(uint64(s.Minute))
	e.bytes(s.ConfigDigest[:])
	e.uvarint(uint64(len(s.CityExcess)))
	for _, row := range s.CityExcess {
		e.f64s(row)
	}
	e.uvarint(uint64(len(s.Updates)))
	for _, u := range s.Updates {
		e.i32(u.Minute)
		e.byte(u.Letter)
		e.i32(u.Peer)
		e.i32(u.From)
		e.i32(u.To)
	}
	e.uvarint(uint64(len(s.Letters)))
	for i := range s.Letters {
		l := &s.Letters[i]
		e.byte(l.Letter)
		e.uvarint(uint64(len(l.Routers)))
		for _, r := range l.Routers {
			e.bool(r.Announced)
			e.i32(r.OverMinutes)
			e.i32(r.DownSince)
		}
		e.bools(l.Active)
		e.bool(l.Overlay)
		e.bools(l.EffActive)
		e.uvarint(uint64(len(l.Epochs)))
		for _, ep := range l.Epochs {
			e.i32(ep.Start)
			e.bools(ep.Active)
		}
		e.uvarint(uint64(len(l.Loss)))
		for si := range l.Loss {
			e.f32s(l.Loss[si])
			e.f32s(l.Delay[si])
			e.bools(l.HasRoute[si])
		}
		e.f64s(l.LegitServed)
		e.f64s(l.AttackServed)
		e.f64s(l.RetryServed)
		e.f64s(l.Responses)
	}
}

// sizeBound is an upper bound on len(Encode(s)) — the encoding with every
// count at a varint's full width — so Encode allocates its multi-megabyte
// buffer once instead of regrowing it. A field Encode gains and this misses
// costs a reallocation, never correctness.
func sizeBound(s *Snapshot) int {
	const count = binary.MaxVarintLen64
	vec := func(n, elemBytes int) int { return count + n*elemBytes }
	n := len(magic) + 4 + 2*count + len(s.ConfigDigest) + sha256.Size
	n += count
	for _, row := range s.CityExcess {
		n += vec(len(row), 8)
	}
	n += vec(len(s.Updates), 1+4*4)
	n += count
	for i := range s.Letters {
		l := &s.Letters[i]
		n += 1 + vec(len(l.Routers), 1+2*4) + vec(len(l.Active), 1) + 1 + vec(len(l.EffActive), 1)
		n += count
		for _, ep := range l.Epochs {
			n += 4 + vec(len(ep.Active), 1)
		}
		n += count
		for si := range l.Loss {
			n += vec(len(l.Loss[si]), 4) + vec(len(l.Delay[si]), 4) + vec(len(l.HasRoute[si]), 1)
		}
		n += vec(len(l.LegitServed), 8) + vec(len(l.AttackServed), 8) + vec(len(l.RetryServed), 8) + vec(len(l.Responses), 8)
	}
	return n
}

// Decode parses and validates a serialized snapshot. It returns an error
// wrapping ErrCorrupt for torn/truncated/bit-flipped input and ErrVersion
// for a format-version mismatch; it never panics.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < len(magic)+4+sha256.Size {
		return nil, fmt.Errorf("%w: %d bytes is shorter than any snapshot", ErrCorrupt, len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(data[len(magic):]); v != Version {
		return nil, fmt.Errorf("%w: snapshot version %d, this build reads %d", ErrVersion, v, Version)
	}
	body, trailer := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if sum := sha256.Sum256(body); string(sum[:]) != string(trailer) {
		return nil, fmt.Errorf("%w: checksum mismatch (torn write?)", ErrCorrupt)
	}
	return decodeBody(body[len(magic)+4:], nil)
}

// decodeBody parses what encoder.body wrote, already checksum-verified by
// the caller. With acc nil it returns a new snapshot. With acc — the fold of
// a log's earlier records — it appends to acc instead: the body must
// continue acc (same run and shape, From == acc.Minute); its series, updates
// and epochs extend acc's, its head replaces acc's. On error discard acc.
func decodeBody(body []byte, acc *Snapshot) (*Snapshot, error) {
	d := decoder{data: body}
	s, fresh := acc, acc == nil
	if fresh {
		s = &Snapshot{}
	}
	from, minute := int(d.uvarint()), int(d.uvarint())
	var digest [32]byte
	d.read(digest[:])
	if from < 0 || minute < from {
		d.fail("bad minute range [%d, %d)", from, minute)
	}
	if fresh {
		s.From, s.ConfigDigest = from, digest
	} else if from != s.Minute || digest != s.ConfigDigest {
		d.fail("record [%d, %d) does not continue minute %d of this run", from, minute, s.Minute)
	}
	s.Minute = minute
	s.CityExcess = shaped(&d, s.CityExcess, fresh, 8)
	for i := range s.CityExcess {
		s.CityExcess[i] = d.f64s(s.CityExcess[i])
	}
	for n := d.count(14); n > 0 && d.err == nil; n-- {
		s.Updates = append(s.Updates, Update{Minute: d.i32(), Letter: d.byte(), Peer: d.i32(), From: d.i32(), To: d.i32()})
	}
	s.Letters = shaped(&d, s.Letters, fresh, 16)
	for i := range s.Letters {
		l := &s.Letters[i]
		if lb := d.byte(); fresh {
			l.Letter = lb
		} else if lb != l.Letter {
			d.fail("letter %c where the log has %c", lb, l.Letter)
		}
		l.Routers = l.Routers[:0]
		for n := d.count(9); n > 0 && d.err == nil; n-- {
			l.Routers = append(l.Routers, Router{Announced: d.bool(), OverMinutes: d.i32(), DownSince: d.i32()})
		}
		l.Active = d.bools(l.Active[:0])
		l.Overlay = d.bool()
		l.EffActive = d.bools(l.EffActive[:0])
		for n := d.count(5); n > 0 && d.err == nil; n-- {
			l.Epochs = append(l.Epochs, Epoch{Start: d.i32(), Active: d.bools(nil)})
		}
		l.Loss = shaped(&d, l.Loss, fresh, 3)
		if fresh {
			l.Delay, l.HasRoute = make([][]float32, len(l.Loss)), make([][]bool, len(l.Loss))
		}
		for si := range l.Loss {
			l.Loss[si] = d.f32s(l.Loss[si])
			l.Delay[si] = d.f32s(l.Delay[si])
			l.HasRoute[si] = d.bools(l.HasRoute[si])
		}
		l.LegitServed = d.f64s(l.LegitServed)
		l.AttackServed = d.f64s(l.AttackServed)
		l.RetryServed = d.f64s(l.RetryServed)
		l.Responses = d.f64s(l.Responses)
	}
	if d.err == nil && d.off != len(body) {
		d.fail("%d trailing bytes after body", len(body)-d.off)
	}
	if d.err != nil {
		return nil, d.err
	}
	return s, nil
}

// shaped reads an entity count (cities, letters, sites): a fresh decode
// sizes the slice by it, an appending one requires it to match.
func shaped[T any](d *decoder, have []T, fresh bool, minElemBytes int) []T {
	n := d.count(minElemBytes)
	if fresh {
		return make([]T, n)
	}
	if d.err == nil && n != len(have) {
		d.fail("%d entries where the log has %d", n, len(have))
	}
	return have
}

// --- deterministic little-endian encoding helpers ---

type encoder struct{ buf []byte }

func (e *encoder) bytes(b []byte)   { e.buf = append(e.buf, b...) }
func (e *encoder) byte(b byte)      { e.buf = append(e.buf, b) }
func (e *encoder) u32(v uint32)     { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *encoder) i32(v int32)      { e.u32(uint32(v)) }
func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) f64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}
func (e *encoder) f32(v float32) { e.u32(math.Float32bits(v)) }

func (e *encoder) bool(v bool) {
	if v {
		e.byte(1)
	} else {
		e.byte(0)
	}
}

// encodeVec writes a length-prefixed vector through the element encoder.
func encodeVec[T any](e *encoder, v []T, elem func(T)) {
	e.uvarint(uint64(len(v)))
	for _, x := range v {
		elem(x)
	}
}

func (e *encoder) bools(v []bool)   { encodeVec(e, v, e.bool) }
func (e *encoder) f64s(v []float64) { encodeVec(e, v, e.f64) }
func (e *encoder) f32s(v []float32) { encodeVec(e, v, e.f32) }

// decoder reads the body with sticky errors and allocation caps: every
// count is validated against the bytes remaining, so a corrupted length
// cannot drive a multi-gigabyte allocation.
type decoder struct {
	data []byte
	off  int
	err  error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s at offset %d", ErrCorrupt, fmt.Sprintf(format, args...), d.off)
	}
}

func (d *decoder) remaining() int { return len(d.data) - d.off }

// take returns the next n bytes uncopied, or nil once the input ran out.
func (d *decoder) take(n int) []byte {
	if d.err == nil && d.remaining() < n {
		d.fail("truncated: need %d bytes", n)
	}
	if d.err != nil {
		return nil
	}
	d.off += n
	return d.data[d.off-n : d.off]
}

func (d *decoder) read(dst []byte) { copy(dst, d.take(len(dst))) }

func (d *decoder) byte() byte {
	var b [1]byte
	d.read(b[:])
	return b[0]
}

func (d *decoder) bool() bool {
	switch d.byte() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("invalid bool")
		return false
	}
}

func (d *decoder) u32() uint32 {
	var b [4]byte
	d.read(b[:])
	return binary.LittleEndian.Uint32(b[:])
}

func (d *decoder) i32() int32 { return int32(d.u32()) }

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.off += n
	return v
}

// count reads a collection length and caps it by the bytes remaining given
// a minimum per-element size.
func (d *decoder) count(minElemBytes int) int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if v > uint64(d.remaining()/minElemBytes)+1 {
		d.fail("count %d exceeds remaining data", v)
		return 0
	}
	return int(v)
}

// decodeVec appends a length-prefixed vector of width-byte elements to dst,
// bounds-checked once; an empty vector leaves dst (nil included) as is.
func decodeVec[T any](d *decoder, dst []T, width int, elem func([]byte) T) []T {
	n := d.count(width)
	b := d.take(n * width)
	if b == nil {
		return dst
	}
	dst = slices.Grow(dst, n)
	for ; len(b) > 0; b = b[width:] {
		dst = append(dst, elem(b))
	}
	return dst
}

func (d *decoder) f64s(dst []float64) []float64 {
	return decodeVec(d, dst, 8, func(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) })
}

func (d *decoder) f32s(dst []float32) []float32 {
	return decodeVec(d, dst, 4, func(b []byte) float32 { return math.Float32frombits(binary.LittleEndian.Uint32(b)) })
}

func (d *decoder) bools(dst []bool) []bool {
	return decodeVec(d, dst, 1, func(b []byte) bool {
		if b[0] > 1 {
			d.fail("invalid bool")
		}
		return b[0] == 1
	})
}
