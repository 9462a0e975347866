// Allocation-free decode/encode fast path.
//
// The serving loop in internal/dnsserver handles one packet per query at
// flood rates, so the codec must not touch the heap per packet. DecodeInto
// parses into a caller-owned Message whose section slices, rdata arena, and
// interned-name cache are reused across calls; AppendResponse emits a
// response by echoing the question and splicing in a precomputed,
// position-independent answer tail. Both are fuzz-proved equivalent to the
// allocating Decode/Encode pair (fastpath_test.go), and the hot helpers
// carry //repolint:hot so the structural lint rejects reintroduced
// allocations before the bench gate ever measures them.
package dnswire

import "encoding/binary"

// maxInternedNames bounds the decode-side name cache. A flood of unique
// spoofed names cannot grow it without bound: at the cap the cache is
// cleared wholesale (the steady-state fixed-name flood re-warms it with one
// entry on the next packet).
const maxInternedNames = 1024

// decodeScratch is the reusable state behind DecodeInto: a name cache that
// makes repeated query names allocation-free, an rdata arena sized to the
// packet, and a stack buffer for name assembly.
type decodeScratch struct {
	names map[string]string
	arena []byte
	buf   [MaxName]byte
}

// newDecodeScratch leaves the name cache unsized: it grows to what the
// Message actually meets, up to maxInternedNames, so a one-shot decode (a
// probe's reply, a TCP connection's first query) costs about what Decode
// does rather than ~30x that for a cache sized to the cap.
func newDecodeScratch() *decodeScratch {
	return &decodeScratch{names: make(map[string]string)}
}

// intern returns a string equal to b, reusing a cached copy when one
// exists. The map index on a string conversion compiles to a lookup without
// materializing the string, so the warm path performs no allocation.
//
//repolint:hot
func (sc *decodeScratch) intern(b []byte) string {
	if s, ok := sc.names[string(b)]; ok {
		return s
	}
	return sc.internSlow(b)
}

// internSlow materializes and caches a new name (the cold path — at most
// maxInternedNames allocations between cache resets).
func (sc *decodeScratch) internSlow(b []byte) string {
	if len(sc.names) >= maxInternedNames {
		clear(sc.names)
	}
	s := string(b)
	sc.names[s] = s
	return s
}

// DecodeInto parses a complete DNS message into m, reusing m's section
// slices and decode scratch. It accepts exactly the messages Decode accepts
// and rejects exactly the ones it rejects (returning the same sentinel
// errors, without Decode's positional wrapping); decoded fields are
// identical. On error m is left in an unspecified partial state.
//
// Unlike Decode, the returned RData slices alias scratch owned by m: they
// are valid until the next DecodeInto call on the same Message.
func DecodeInto(msg []byte, m *Message) error {
	if len(msg) < HeaderLen {
		return ErrTruncatedMessage
	}
	sc := m.scratch
	if sc == nil {
		sc = newDecodeScratch()
		m.scratch = sc
	}
	id := binary.BigEndian.Uint16(msg[0:])
	flags := binary.BigEndian.Uint16(msg[2:])
	qd := int(binary.BigEndian.Uint16(msg[4:]))
	an := int(binary.BigEndian.Uint16(msg[6:]))
	ns := int(binary.BigEndian.Uint16(msg[8:]))
	ar := int(binary.BigEndian.Uint16(msg[10:]))
	// Same plausibility bound as DecodePrefix: each question needs >= 5
	// bytes and each RR >= 11.
	if qd*5+(an+ns+ar)*11 > len(msg)-HeaderLen {
		return ErrTooManyRecords
	}
	m.Header = headerFromFlags(id, flags)
	m.Questions = m.Questions[:0]
	m.Answers = m.Answers[:0]
	m.Authority = m.Authority[:0]
	m.Additional = m.Additional[:0]
	// Total rdata cannot exceed the packet, so sizing the arena to the
	// packet up front guarantees no mid-decode reallocation — earlier
	// RData slices stay valid as later records land.
	if cap(sc.arena) < len(msg) {
		sc.arena = make([]byte, 0, len(msg))
	} else {
		sc.arena = sc.arena[:0]
	}
	off := HeaderLen
	for i := 0; i < qd; i++ {
		n, end, err := decodeNameBuf(msg, off, &sc.buf)
		if err != nil {
			return err
		}
		if end+4 > len(msg) {
			return ErrTruncatedMessage
		}
		m.Questions = append(m.Questions, Question{
			Name:  sc.intern(sc.buf[:n]),
			Type:  Type(binary.BigEndian.Uint16(msg[end:])),
			Class: Class(binary.BigEndian.Uint16(msg[end+2:])),
		})
		off = end + 4
	}
	var err error
	if off, err = decodeRRsInto(msg, off, an, &m.Answers, sc); err != nil {
		return err
	}
	if off, err = decodeRRsInto(msg, off, ns, &m.Authority, sc); err != nil {
		return err
	}
	if off, err = decodeRRsInto(msg, off, ar, &m.Additional, sc); err != nil {
		return err
	}
	if off != len(msg) {
		return ErrTrailingGarbage
	}
	return nil
}

// decodeRRsInto parses n resource records starting at off, appending to
// *dst (reusing its capacity) with rdata carved from the scratch arena.
func decodeRRsInto(msg []byte, off, n int, dst *[]RR, sc *decodeScratch) (int, error) {
	for i := 0; i < n; i++ {
		nameLen, end, err := decodeNameBuf(msg, off, &sc.buf)
		if err != nil {
			return 0, err
		}
		if end+10 > len(msg) {
			return 0, ErrTruncatedMessage
		}
		rdlen := int(binary.BigEndian.Uint16(msg[end+8:]))
		rdStart := end + 10
		if rdStart+rdlen > len(msg) {
			return 0, ErrTruncatedMessage
		}
		aStart := len(sc.arena)
		sc.arena = append(sc.arena, msg[rdStart:rdStart+rdlen]...)
		*dst = append(*dst, RR{
			Name:  sc.intern(sc.buf[:nameLen]),
			Type:  Type(binary.BigEndian.Uint16(msg[end:])),
			Class: Class(binary.BigEndian.Uint16(msg[end+2:])),
			TTL:   binary.BigEndian.Uint32(msg[end+4:]),
			RData: sc.arena[aStart:len(sc.arena):len(sc.arena)],
		})
		off = rdStart + rdlen
	}
	return off, nil
}

// decodeNameBuf is decodeName writing the canonical presentation name into
// dst instead of a strings.Builder: same traversal, same bounds and loop
// protection, same ASCII-only lowering, so the two accept and reject
// identical inputs. It returns the presentation length (0 for the root) and
// the offset just past the name's first encoding. The presentation form of
// a maximal wire name is at most MaxName-1 bytes, so dst never overflows.
//
//repolint:hot
func decodeNameBuf(msg []byte, off int, dst *[MaxName]byte) (n, end int, err error) {
	ptrBudget := len(msg)
	jumped := false
	end = off
	total := 0
	for {
		if off >= len(msg) {
			return 0, 0, ErrTruncatedName
		}
		b := int(msg[off])
		switch {
		case b == 0:
			if !jumped {
				end = off + 1
			}
			return n, end, nil
		case b&0xC0 == 0xC0:
			if off+1 >= len(msg) {
				return 0, 0, ErrTruncatedName
			}
			target := (b&0x3F)<<8 | int(msg[off+1])
			if !jumped {
				end = off + 2
				jumped = true
			}
			if target >= len(msg) {
				return 0, 0, ErrBadPointer
			}
			ptrBudget--
			if ptrBudget <= 0 {
				return 0, 0, ErrPointerLoop
			}
			off = target
		case b&0xC0 != 0:
			return 0, 0, ErrBadLabelByte
		default:
			if off+1+b > len(msg) {
				return 0, 0, ErrTruncatedName
			}
			total += b + 1
			if total > MaxName {
				return 0, 0, ErrNameTooLong
			}
			if n > 0 {
				dst[n] = '.'
				n++
			}
			for _, c := range msg[off+1 : off+1+b] {
				if 'A' <= c && c <= 'Z' {
					c += 'a' - 'A'
				}
				dst[n] = c
				n++
			}
			off += 1 + b
			if !jumped {
				end = off
			}
		}
	}
}

// AppendResponse appends a complete response message to dst and returns the
// extended slice: a header carrying q's ID and opcode with QR set, q's
// question section re-encoded, and tail spliced in verbatim as the
// answer/authority/additional sections (an/ns/ar are the record counts
// inside tail). The tail must be position-independent: compression pointers
// inside it may only target the first question's owner name at offset
// HeaderLen (0xC00C), which is where this function places it — exactly the
// layout Message.Encode produces for the single-question responses the
// server emits, so the output is byte-identical to the legacy path.
//
// For messages with a single question, AppendResponse(dst, q, rcode, aa,
// tc, nil, 0, 0, 0) equals NewResponse(q, rcode) (+AA/TC) followed by
// Encode — proved in TestAppendResponseMatchesEncode.
//
//repolint:hot
func AppendResponse(dst []byte, q *Message, rcode RCode, aa, tc bool, tail []byte, an, ns, ar int) ([]byte, error) {
	base := len(dst)
	need := base + HeaderLen + len(tail)
	for i := range q.Questions {
		need += len(q.Questions[i].Name) + 2 + 4
	}
	dst = growCap(dst, need)
	dst = dst[:base+HeaderLen]
	flags := flagQR | uint16(q.Header.Opcode&0xF)<<11 | uint16(rcode&0xF)
	if aa {
		flags |= flagAA
	}
	if tc {
		flags |= flagTC
	}
	binary.BigEndian.PutUint16(dst[base:], q.Header.ID)
	binary.BigEndian.PutUint16(dst[base+2:], flags)
	binary.BigEndian.PutUint16(dst[base+4:], uint16(len(q.Questions)))
	binary.BigEndian.PutUint16(dst[base+6:], uint16(an))
	binary.BigEndian.PutUint16(dst[base+8:], uint16(ns))
	binary.BigEndian.PutUint16(dst[base+10:], uint16(ar))
	var err error
	for i := range q.Questions {
		if dst, err = putName(dst, q.Questions[i].Name); err != nil {
			return nil, err
		}
		w := len(dst)
		dst = dst[:w+4]
		binary.BigEndian.PutUint16(dst[w:], uint16(q.Questions[i].Type))
		binary.BigEndian.PutUint16(dst[w+2:], uint16(q.Questions[i].Class))
	}
	w := len(dst)
	dst = dst[:w+len(tail)]
	copy(dst[w:], tail)
	return dst, nil
}

// putName appends the uncompressed wire encoding of a presentation-format
// name, validating and canonicalizing exactly like CheckName+appendName:
// one trailing dot trimmed, ASCII A-Z folded, and the same set of names
// rejected (a name with several defects may surface a different sentinel —
// CheckName pre-scans for empty labels, this single pass reports the first
// defect it meets). The caller must have reserved len(name)+2 bytes of
// capacity.
//
//repolint:hot
func putName(dst []byte, name string) ([]byte, error) {
	w := len(dst)
	if name == "." || name == "" {
		dst = dst[:w+1]
		dst[w] = 0
		return dst, nil
	}
	if name[len(name)-1] == '.' {
		name = name[:len(name)-1]
	}
	lenAt := w // index of the pending label's length octet
	dst = dst[:w+1]
	w++
	labelLen := 0
	total := 1
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c == '.' {
			if labelLen == 0 {
				return nil, ErrEmptyLabel
			}
			dst[lenAt] = byte(labelLen)
			total += labelLen + 1
			lenAt = w
			dst = dst[:w+1]
			w++
			labelLen = 0
			continue
		}
		labelLen++
		if labelLen > MaxLabel {
			return nil, ErrLabelTooLong
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = dst[:w+1]
		dst[w] = c
		w++
	}
	if labelLen == 0 {
		return nil, ErrEmptyLabel
	}
	dst[lenAt] = byte(labelLen)
	total += labelLen + 1
	if total > MaxName {
		return nil, ErrNameTooLong
	}
	dst = dst[:w+1]
	dst[w] = 0
	return dst, nil
}

// growCap returns dst with capacity at least need, preserving contents.
// Deliberately not hot: it is the one place the encode path may allocate,
// and only until the caller's buffer warms up to its steady-state size.
func growCap(dst []byte, need int) []byte {
	if cap(dst) >= need {
		return dst
	}
	grown := make([]byte, len(dst), need)
	copy(grown, dst)
	return grown
}
