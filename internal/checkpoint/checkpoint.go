// Package checkpoint provides versioned, content-hashed snapshots of the
// evaluation engine's mutable state at minute boundaries, so a long event
// replay killed at minute 140 of 160 resumes from its last snapshot and
// finishes byte-identical to an uninterrupted run.
//
// A Snapshot is plain data: everything the engine mutates minute to minute
// (announcement state machines, routing-epoch history as effective
// announcement vectors, per-site service-quality prefixes, shared-fabric
// city load, the BGP collector's update stream) plus a digest of the
// configuration that determines the run. Everything *derivable* from the
// configuration — topology, deployment, population, routing tables — is
// deliberately absent: the resuming engine rebuilds it deterministically
// from the same seed and replays the epoch vectors through the same route
// computation, which keeps snapshots small and the format stable.
//
// The serialized form is deterministic (same state, same bytes): a fixed
// magic, a format version, a length-prefixed body, and a SHA-256 trailer
// over everything before it. Decode never panics on hostile input — torn,
// truncated, bit-flipped, or version-skewed snapshots return errors
// wrapping ErrCorrupt or ErrVersion, which is what lets the loader fall
// back to the previous good snapshot.
package checkpoint

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Version is the current snapshot format version. Bump it whenever the
// body layout changes; old snapshots then fail with ErrVersion instead of
// decoding into garbage.
const Version = 1

// magic identifies a snapshot file. 8 bytes, never changes across versions.
const magic = "RDNSCKPT"

var (
	// ErrCorrupt marks a snapshot that is torn, truncated, or fails its
	// checksum; unwrap with errors.Is.
	ErrCorrupt = errors.New("checkpoint: corrupt snapshot")
	// ErrVersion marks a snapshot written by an incompatible format
	// version.
	ErrVersion = errors.New("checkpoint: unsupported snapshot version")
	// ErrNoSnapshot is returned by LoadLatest when a directory holds no
	// usable snapshot at all (missing, empty, or everything corrupt).
	ErrNoSnapshot = errors.New("checkpoint: no usable snapshot")
)

// Snapshot is the engine state at one minute boundary: Minute is the next
// minute to execute; every per-minute series holds exactly the [0, Minute)
// prefix.
type Snapshot struct {
	// Minute is the first unexecuted minute of the resumed run.
	Minute int
	// ConfigDigest identifies the run: a hash of the engine configuration,
	// attack schedule, and injected fault plan. Resuming under a different
	// configuration is an error, never a silent divergence.
	ConfigDigest [32]byte
	// CityExcess[city][m] is the shared-fabric over-capacity load, city
	// dimension in the engine's dense city order.
	CityExcess [][]float64
	// Updates is the BGP collector's update stream so far.
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
// through its (memoized, warm-started) computer and lands on bit-identical
// tables and cache state.
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
	// Per-site per-minute service prefixes, [site][minute].
	Loss     [][]float32
	Delay    [][]float32
	HasRoute [][]bool
	// Per-minute letter traffic prefixes.
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
	sum := sha256.Sum256(e.buf)
	return append(e.buf, sum[:]...)
}

// sizeBound is an upper bound on len(Encode(s)): the encoding with every
// count at a varint's full width. Encode sizes its buffer with it, once; a
// multi-megabyte buffer grown by append was reallocated dozens of times per
// snapshot, several times the encoding in garbage. A field Encode gains and
// this misses costs a reallocation, never correctness.
func sizeBound(s *Snapshot) int {
	const count = binary.MaxVarintLen64
	vec := func(n, elemBytes int) int { return count + n*elemBytes }
	n := len(magic) + 4 + count + len(s.ConfigDigest) + sha256.Size
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
	d := decoder{data: body, off: len(magic) + 4}
	s := &Snapshot{}
	s.Minute = int(d.uvarint())
	d.read(s.ConfigDigest[:])
	s.CityExcess = make([][]float64, d.count(8))
	for i := range s.CityExcess {
		s.CityExcess[i] = d.f64s()
	}
	s.Updates = make([]Update, d.count(14))
	for i := range s.Updates {
		u := &s.Updates[i]
		u.Minute = d.i32()
		u.Letter = d.byte()
		u.Peer = d.i32()
		u.From = d.i32()
		u.To = d.i32()
	}
	s.Letters = make([]Letter, d.count(16))
	for i := range s.Letters {
		l := &s.Letters[i]
		l.Letter = d.byte()
		l.Routers = make([]Router, d.count(9))
		for j := range l.Routers {
			r := &l.Routers[j]
			r.Announced = d.bool()
			r.OverMinutes = d.i32()
			r.DownSince = d.i32()
		}
		l.Active = d.bools()
		l.Overlay = d.bool()
		l.EffActive = d.bools()
		l.Epochs = make([]Epoch, d.count(5))
		for j := range l.Epochs {
			l.Epochs[j].Start = d.i32()
			l.Epochs[j].Active = d.bools()
		}
		nSites := d.count(3)
		l.Loss = make([][]float32, nSites)
		l.Delay = make([][]float32, nSites)
		l.HasRoute = make([][]bool, nSites)
		for si := 0; si < nSites; si++ {
			l.Loss[si] = d.f32s()
			l.Delay[si] = d.f32s()
			l.HasRoute[si] = d.bools()
		}
		l.LegitServed = d.f64s()
		l.AttackServed = d.f64s()
		l.RetryServed = d.f64s()
		l.Responses = d.f64s()
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes after body", ErrCorrupt, len(body)-d.off)
	}
	if s.Minute < 0 {
		return nil, fmt.Errorf("%w: negative minute", ErrCorrupt)
	}
	return s, nil
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

func (e *encoder) bools(v []bool) {
	e.uvarint(uint64(len(v)))
	for _, b := range v {
		e.bool(b)
	}
}

func (e *encoder) f64s(v []float64) {
	e.uvarint(uint64(len(v)))
	for _, f := range v {
		e.f64(f)
	}
}

func (e *encoder) f32s(v []float32) {
	e.uvarint(uint64(len(v)))
	for _, f := range v {
		e.f32(f)
	}
}

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

func (d *decoder) read(dst []byte) {
	if d.err != nil {
		return
	}
	if d.remaining() < len(dst) {
		d.fail("truncated: need %d bytes", len(dst))
		return
	}
	copy(dst, d.data[d.off:])
	d.off += len(dst)
}

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

func (d *decoder) bools() []bool {
	n := d.count(1)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = d.bool()
	}
	return out
}

func (d *decoder) f64s() []float64 {
	n := d.count(8)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		var b [8]byte
		d.read(b[:])
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
	}
	return out
}

func (d *decoder) f32s() []float32 {
	n := d.count(4)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(d.u32())
	}
	return out
}
