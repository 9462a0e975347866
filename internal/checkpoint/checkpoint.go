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
// Within a record every per-minute series is a change mask (format version
// 3): its first value, a bit per later minute that is set where the value
// changed, and the changed values. Outside an event the series barely move,
// so a quiet minute costs a bit per series. Records stay self-contained: a
// record decodes without its predecessor's values.
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
	"math/bits"
	"slices"
)

// Version is the format version of the record body and the log. Bump it
// whenever the body layout changes; old checkpoints then fail with
// ErrVersion instead of decoding into garbage. (Version 1, full snapshot
// files plus a manifest, is not read: its directories hold no log. A
// version 2 log, which stored every minute of every series, fails with
// ErrVersion.)
const Version = 3

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
// what Encode frames. Every per-minute series is a change-mask series
// (f64Series and its siblings); the head's vectors are written in full.
func (e *encoder) body(s *Snapshot) {
	e.uvarint(uint64(s.From))
	e.uvarint(uint64(s.Minute))
	e.bytes(s.ConfigDigest[:])
	e.uvarint(uint64(len(s.CityExcess)))
	for _, row := range s.CityExcess {
		e.f64Series(row)
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
			e.f32Series(l.Loss[si])
			e.f32Series(l.Delay[si])
			e.boolSeries(l.HasRoute[si])
		}
		e.f64Series(l.LegitServed)
		e.f64Series(l.AttackServed)
		e.f64Series(l.RetryServed)
		e.f64Series(l.Responses)
	}
}

// sizeBound is len(Encode(s)), exactly: every count at its varint width
// and every series at its change count, so Encode allocates its buffer once
// instead of regrowing it. A field Encode gains and this misses costs a
// reallocation, never correctness.
func sizeBound(s *Snapshot) int {
	vec := func(n, elemBytes int) int { return uvarintLen(n) + n*elemBytes }
	n := len(magic) + 4 + uvarintLen(s.From) + uvarintLen(s.Minute) + len(s.ConfigDigest) + sha256.Size
	n += uvarintLen(len(s.CityExcess))
	for _, row := range s.CityExcess {
		n += f64SeriesSize(row)
	}
	n += vec(len(s.Updates), 1+4*4)
	n += uvarintLen(len(s.Letters))
	for i := range s.Letters {
		l := &s.Letters[i]
		n += 1 + vec(len(l.Routers), 1+2*4) + vec(len(l.Active), 1) + 1 + vec(len(l.EffActive), 1)
		n += uvarintLen(len(l.Epochs))
		for _, ep := range l.Epochs {
			n += 4 + vec(len(ep.Active), 1)
		}
		n += uvarintLen(len(l.Loss))
		for si := range l.Loss {
			n += f32SeriesSize(l.Loss[si]) + f32SeriesSize(l.Delay[si]) + seriesSize(len(l.HasRoute[si]), 1, 0)
		}
		n += f64SeriesSize(l.LegitServed) + f64SeriesSize(l.AttackServed) + f64SeriesSize(l.RetryServed) + f64SeriesSize(l.Responses)
	}
	return n
}

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v int) int { return (bits.Len64(uint64(v)|1) + 6) / 7 }

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
	return decodeBody(&decoder{data: body[len(magic)+4:]}, nil)
}

// decodeBody parses what encoder.body wrote into d, already
// checksum-verified by the caller. With acc nil it returns a new snapshot.
// With acc — the fold of a log's earlier records — it appends to acc
// instead: the body must continue acc (same run and shape, From ==
// acc.Minute); its series, updates and epochs extend acc's, its head
// replaces acc's. On error discard acc.
func decodeBody(d *decoder, acc *Snapshot) (*Snapshot, error) {
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
	s.CityExcess = shaped(d, s.CityExcess, fresh, 8)
	for i := range s.CityExcess {
		s.CityExcess[i] = d.f64Series(s.CityExcess[i])
	}
	for n := d.count(14); n > 0 && d.err == nil; n-- {
		s.Updates = append(s.Updates, Update{Minute: d.i32(), Letter: d.byte(), Peer: d.i32(), From: d.i32(), To: d.i32()})
	}
	s.Letters = shaped(d, s.Letters, fresh, 16)
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
		l.Loss = shaped(d, l.Loss, fresh, 3)
		if fresh {
			l.Delay, l.HasRoute = make([][]float32, len(l.Loss)), make([][]bool, len(l.Loss))
		}
		for si := range l.Loss {
			l.Loss[si] = d.f32Series(l.Loss[si])
			l.Delay[si] = d.f32Series(l.Delay[si])
			l.HasRoute[si] = d.boolSeries(l.HasRoute[si])
		}
		l.LegitServed = d.f64Series(l.LegitServed)
		l.AttackServed = d.f64Series(l.AttackServed)
		l.RetryServed = d.f64Series(l.RetryServed)
		l.Responses = d.f64Series(l.Responses)
	}
	if d.err == nil && d.off != len(d.data) {
		d.fail("%d trailing bytes after body", len(d.data)-d.off)
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
func (e *encoder) u64(v uint64)     { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *encoder) i32(v int32)      { e.u32(uint32(v)) }
func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

func (e *encoder) bool(v bool) {
	if v {
		e.byte(1)
	} else {
		e.byte(0)
	}
}

// bools writes a fixed-width vector: its length, then a byte per element.
func (e *encoder) bools(v []bool) {
	e.uvarint(uint64(len(v)))
	for _, x := range v {
		e.bool(x)
	}
}

// A change-mask series stores v[0:n] as n (uvarint), v[0] at its fixed
// width, an (n-1)-bit mask whose bit i is set when v[i+1] differs from v[i],
// and then, in order, the value of every set bit. Floats compare by bit
// pattern, so -0 after +0 is a change and a NaN's payload survives; a bool
// change is a flip and carries no value. An empty series is its count
// alone. Bits fill each mask byte from its least significant end.

// maskBytes is the length of an n-cell series' change mask, n >= 1.
func maskBytes(n int) int { return (n + 6) / 8 }

// mask appends an n-cell series' change mask, every bit clear, and returns
// its offset for changed to set bits in. It grows and clears rather than
// appending a make: the race detector's build allocates for the latter.
func (e *encoder) mask(n int) int {
	off := len(e.buf)
	e.buf = slices.Grow(e.buf, maskBytes(n))[:off+maskBytes(n)]
	clear(e.buf[off:])
	return off
}

// changed sets bit i of the mask at off: cell i+1 differs from cell i.
func (e *encoder) changed(off, i int) { e.buf[off+(i>>3)] |= 1 << (i & 7) }

func (e *encoder) f64Series(v []float64) {
	e.uvarint(uint64(len(v)))
	if len(v) == 0 {
		return
	}
	prev := math.Float64bits(v[0])
	e.u64(prev)
	m := e.mask(len(v))
	for i, x := range v[1:] {
		if b := math.Float64bits(x); b != prev {
			e.changed(m, i)
			e.u64(b)
			prev = b
		}
	}
}

func (e *encoder) f32Series(v []float32) {
	e.uvarint(uint64(len(v)))
	if len(v) == 0 {
		return
	}
	prev := math.Float32bits(v[0])
	e.u32(prev)
	m := e.mask(len(v))
	for i, x := range v[1:] {
		if b := math.Float32bits(x); b != prev {
			e.changed(m, i)
			e.u32(b)
			prev = b
		}
	}
}

func (e *encoder) boolSeries(v []bool) {
	e.uvarint(uint64(len(v)))
	if len(v) == 0 {
		return
	}
	e.bool(v[0])
	m := e.mask(len(v))
	for i, x := range v[1:] {
		if x != v[i] {
			e.changed(m, i)
		}
	}
}

// seriesSize is the encoded length of an n-cell series whose first value
// takes width bytes and whose changed values take values bytes in all.
func seriesSize(n, width, values int) int {
	if n == 0 {
		return 1
	}
	return uvarintLen(n) + width + maskBytes(n) + values
}

func f64SeriesSize(v []float64) int {
	changes := 0
	for i := 1; i < len(v); i++ {
		if math.Float64bits(v[i]) != math.Float64bits(v[i-1]) {
			changes++
		}
	}
	return seriesSize(len(v), 8, 8*changes)
}

func f32SeriesSize(v []float32) int {
	changes := 0
	for i := 1; i < len(v); i++ {
		if math.Float32bits(v[i]) != math.Float32bits(v[i-1]) {
			changes++
		}
	}
	return seriesSize(len(v), 4, 4*changes)
}

// decoder reads the body with sticky errors and allocation caps: every
// count is validated against the bytes remaining, so a corrupted length
// cannot drive a multi-gigabyte allocation.
type decoder struct {
	data []byte
	off  int
	err  error
	// reserve, when budget covers it, is the length a fresh series is
	// sized for: a fold's first record sizes every series for the whole
	// fold, so the records after it never regrow one. budget is the cells
	// the fold's bytes can hold at a mask bit each, so a hostile span
	// cannot size series past what the input could really fill.
	reserve, budget int
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

func (d *decoder) u64() uint64 {
	var b [8]byte
	d.read(b[:])
	return binary.LittleEndian.Uint64(b[:])
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

// bools appends a fixed-width vector to dst; an empty one leaves dst (nil
// included) as is.
func (d *decoder) bools(dst []bool) []bool {
	b := d.take(d.count(1))
	dst = slices.Grow(dst, len(b))
	for _, x := range b {
		if x > 1 {
			d.fail("invalid bool")
		}
		dst = append(dst, x == 1)
	}
	return dst
}

// seriesHead reads a series' count, capped at 8 cells per remaining byte
// (a cell costs at least its mask bit), and with n > 0 its first value's
// width bytes and its mask, whose padding bits must be clear. ok is false
// for an empty series or once decoding failed.
func (d *decoder) seriesHead(width int) (n int, first uint64, mask []byte, ok bool) {
	v := d.uvarint()
	if d.err == nil && v > 8*uint64(d.remaining()) {
		d.fail("series of %d cells exceeds remaining data", v)
	}
	if d.err != nil || v == 0 {
		return 0, 0, nil, false
	}
	n = int(v)
	b := d.take(width + maskBytes(n))
	if b == nil {
		return 0, 0, nil, false
	}
	switch width {
	case 8:
		first = binary.LittleEndian.Uint64(b)
	case 4:
		first = uint64(binary.LittleEndian.Uint32(b))
	default:
		first = uint64(b[0])
	}
	mask = b[width:]
	if pad := (n - 1) & 7; pad != 0 && mask[len(mask)-1]>>pad != 0 {
		d.fail("series mask padding bits set")
		return 0, 0, nil, false
	}
	return n, first, mask, true
}

// changedValue reads the value a set mask bit announces, which must differ
// from the one it replaces: the encoding is canonical.
func (d *decoder) changedValue(width int, prev uint64) uint64 {
	var v uint64
	if width == 4 {
		v = uint64(d.u32())
	} else {
		v = d.u64()
	}
	if v == prev && d.err == nil {
		d.fail("series change to an identical value")
	}
	return v
}

// grow extends dst by n cells: by d.reserve at once for a fresh series the
// budget still covers, by exactly n otherwise.
func grow[T any](d *decoder, dst []T, n int) []T {
	if cap(dst) == 0 && d.reserve > n && d.budget >= d.reserve {
		d.budget -= d.reserve
		return slices.Grow(dst, d.reserve)[:n]
	}
	return slices.Grow(dst, n)[:len(dst)+n]
}

// f64Series appends a change-mask series to dst.
func (d *decoder) f64Series(dst []float64) []float64 {
	n, cur, mask, ok := d.seriesHead(8)
	if !ok {
		return dst
	}
	base := len(dst)
	dst = grow(d, dst, n)
	out := dst[base:]
	out[0] = math.Float64frombits(cur)
	for i := 1; i < n; i++ {
		if mask[(i-1)>>3]&(1<<((i-1)&7)) != 0 {
			cur = d.changedValue(8, cur)
		}
		out[i] = math.Float64frombits(cur)
	}
	return dst
}

// f32Series appends a change-mask series to dst.
func (d *decoder) f32Series(dst []float32) []float32 {
	n, cur, mask, ok := d.seriesHead(4)
	if !ok {
		return dst
	}
	base := len(dst)
	dst = grow(d, dst, n)
	out := dst[base:]
	out[0] = math.Float32frombits(uint32(cur))
	for i := 1; i < n; i++ {
		if mask[(i-1)>>3]&(1<<((i-1)&7)) != 0 {
			cur = d.changedValue(4, cur)
		}
		out[i] = math.Float32frombits(uint32(cur))
	}
	return dst
}

// boolSeries appends a change-mask series to dst: a set bit is a flip.
func (d *decoder) boolSeries(dst []bool) []bool {
	n, first, mask, ok := d.seriesHead(1)
	if !ok {
		return dst
	}
	if first > 1 {
		d.fail("invalid bool")
	}
	base := len(dst)
	dst = grow(d, dst, n)
	out := dst[base:]
	cur := first == 1
	out[0] = cur
	for i := 1; i < n; i++ {
		if mask[(i-1)>>3]&(1<<((i-1)&7)) != 0 {
			cur = !cur
		}
		out[i] = cur
	}
	return dst
}
