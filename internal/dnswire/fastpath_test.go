package dnswire

import (
	"bytes"
	"fmt"
	"testing"
)

// sectionsEqual compares two decoded messages field by field (RData by
// content — the fast path aliases its arena, the legacy path copies).
func sectionsEqual(t *testing.T, legacy, fast *Message) {
	t.Helper()
	if legacy.Header != fast.Header {
		t.Fatalf("header mismatch: legacy %+v fast %+v", legacy.Header, fast.Header)
	}
	if len(legacy.Questions) != len(fast.Questions) {
		t.Fatalf("question count: legacy %d fast %d", len(legacy.Questions), len(fast.Questions))
	}
	for i := range legacy.Questions {
		if legacy.Questions[i] != fast.Questions[i] {
			t.Fatalf("question %d: legacy %+v fast %+v", i, legacy.Questions[i], fast.Questions[i])
		}
	}
	for si, sec := range []struct {
		name         string
		legacy, fast []RR
	}{
		{"answer", legacy.Answers, fast.Answers},
		{"authority", legacy.Authority, fast.Authority},
		{"additional", legacy.Additional, fast.Additional},
	} {
		if len(sec.legacy) != len(sec.fast) {
			t.Fatalf("%s count: legacy %d fast %d", sec.name, len(sec.legacy), len(sec.fast))
		}
		for i := range sec.legacy {
			l, f := sec.legacy[i], sec.fast[i]
			if l.Name != f.Name || l.Type != f.Type || l.Class != f.Class || l.TTL != f.TTL {
				t.Fatalf("%s %d fields: legacy %+v fast %+v", sec.name, i, l, f)
			}
			if !bytes.Equal(l.RData, f.RData) {
				t.Fatalf("%s %d rdata: legacy %x fast %x (section %d)", sec.name, i, l.RData, f.RData, si)
			}
		}
	}
}

// FuzzDecodeIntoMatchesDecode holds DecodeInto to the legacy Decode
// contract: identical accept/reject decisions, identical decoded fields,
// and a byte-identical re-encode whenever the legacy decode re-encodes.
func FuzzDecodeIntoMatchesDecode(f *testing.F) {
	q := NewQuery(1, "www.336901.com", TypeA, ClassINET)
	pkt, _ := q.Pack()
	f.Add(pkt)
	resp := NewResponse(q, RCodeNoError)
	txt, _ := MakeTXT("hostname.bind", ClassCHAOS, 0, "ns1.ams.k.ripe.net")
	resp.Answers = append(resp.Answers, txt)
	rpkt, _ := resp.Pack()
	f.Add(rpkt)
	f.Add([]byte{0xC0, 0x00})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	mixed, _ := NewQuery(2, "WwW.ExAmPlE.CoM", TypeAAAA, ClassINET).Pack()
	f.Add(mixed)

	var reused Message // deliberately shared across fuzz iterations
	f.Fuzz(func(t *testing.T, data []byte) {
		legacy, legacyErr := Decode(data)
		fastErr := DecodeInto(data, &reused)
		if (legacyErr == nil) != (fastErr == nil) {
			t.Fatalf("accept/reject mismatch: legacy err %v, fast err %v", legacyErr, fastErr)
		}
		if legacyErr != nil {
			return
		}
		sectionsEqual(t, legacy, &reused)
		legacyOut, legacyPackErr := legacy.Pack()
		fastOut, fastPackErr := reused.Pack()
		if (legacyPackErr == nil) != (fastPackErr == nil) {
			t.Fatalf("re-encode mismatch: legacy err %v, fast err %v", legacyPackErr, fastPackErr)
		}
		if legacyPackErr == nil && !bytes.Equal(legacyOut, fastOut) {
			t.Fatalf("re-encode bytes differ:\nlegacy %x\nfast   %x", legacyOut, fastOut)
		}
	})
}

// TestDecodeIntoScratchReuse decodes alternating packets through one
// Message and re-checks the first decode afterwards: arena and cache reuse
// must not let a later packet corrupt an earlier decode's expectations.
func TestDecodeIntoScratchReuse(t *testing.T) {
	resp := NewResponse(NewQuery(9, "hostname.bind", TypeTXT, ClassCHAOS), RCodeNoError)
	txt, err := MakeTXT("hostname.bind", ClassCHAOS, 0, "ns1.ams.k.ripe.net")
	if err != nil {
		t.Fatal(err)
	}
	resp.Answers = append(resp.Answers, txt)
	pktA, err := resp.Pack()
	if err != nil {
		t.Fatal(err)
	}
	pktB, err := NewQuery(10, "www.336901.com", TypeA, ClassINET).Pack()
	if err != nil {
		t.Fatal(err)
	}

	var m Message
	for i := 0; i < 10; i++ {
		pkt := pktA
		if i%2 == 1 {
			pkt = pktB
		}
		if err := DecodeInto(pkt, &m); err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		legacy, err := Decode(pkt)
		if err != nil {
			t.Fatal(err)
		}
		sectionsEqual(t, legacy, &m)
	}
}

// TestDecodeIntoSentinels checks the fast path returns the package's
// sentinel errors for the canonical malformed inputs.
func TestDecodeIntoSentinels(t *testing.T) {
	var m Message
	if err := DecodeInto(make([]byte, HeaderLen-1), &m); err != ErrTruncatedMessage {
		t.Fatalf("short header: got %v, want ErrTruncatedMessage", err)
	}
	pkt, err := NewQuery(3, "example.com", TypeA, ClassINET).Pack()
	if err != nil {
		t.Fatal(err)
	}
	if err := DecodeInto(append(pkt, 0xFF), &m); err != ErrTrailingGarbage {
		t.Fatalf("trailing byte: got %v, want ErrTrailingGarbage", err)
	}
	bogus := append([]byte(nil), pkt...)
	bogus[6] = 0xFF // claim 65280+ answers in a tiny packet
	bogus[7] = 0x00
	if err := DecodeInto(bogus, &m); err != ErrTooManyRecords {
		t.Fatalf("implausible counts: got %v, want ErrTooManyRecords", err)
	}
}

// TestPutNameMatchesAppendName drives putName across the presentation-name
// space: every valid name encodes byte-identically to appendName, every
// name appendName rejects is rejected too.
func TestPutNameMatchesAppendName(t *testing.T) {
	long := ""
	for i := 0; i < 128; i++ {
		long += "ab."
	}
	names := []string{
		"", ".", "www.example.com", "www.example.com.", "WwW.ExAmPlE.CoM",
		"hostname.bind", "a", "a.b.c.d.e.f.g", "..", "a..b", ".a", "a.",
		string(bytes.Repeat([]byte{'x'}, 64)), // label too long
		string(bytes.Repeat([]byte{'x'}, 63)),
		long,          // name too long
		long[:252],    // 63 labels of "ab." = 252 chars -> wire 253, fits
		"a.." + long,  // multiple defects
		"xn--n28h.de", // IDNA stays opaque bytes
	}
	for _, name := range names {
		want, wantErr := appendName(nil, name, nil)
		got, gotErr := putName(growCap(nil, len(name)+2), name)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%q: appendName err %v, putName err %v", name, wantErr, gotErr)
		}
		if wantErr == nil && !bytes.Equal(want, got) {
			t.Fatalf("%q: appendName %x, putName %x", name, want, got)
		}
	}
}

// responseShapes builds every response the server emits, as (query, legacy
// response) pairs; used for tail-splicing equivalence and the benches.
func responseShapes(t testing.TB) []struct {
	name  string
	query *Message
	resp  *Message
} {
	t.Helper()
	build := func(name string, q *Message, f func(*Message)) struct {
		name  string
		query *Message
		resp  *Message
	} {
		r := NewResponse(q, RCodeNoError)
		f(r)
		return struct {
			name  string
			query *Message
			resp  *Message
		}{name, q, r}
	}
	identity := build("chaos-txt", NewQuery(1, "hostname.bind", TypeTXT, ClassCHAOS), func(r *Message) {
		r.Header.Authoritative = true
		txt, err := MakeTXT("hostname.bind", ClassCHAOS, 0, "ns1.ams.k.ripe.net")
		if err != nil {
			t.Fatal(err)
		}
		r.Answers = append(r.Answers, txt)
	})
	priming := build("priming", NewQuery(2, "", TypeNS, ClassINET), func(r *Message) {
		r.Header.Authoritative = true
		for c := byte('a'); c <= 'm'; c++ {
			ns, err := MakeNS("", 3600000, fmt.Sprintf("%c.root-servers.net", c))
			if err != nil {
				t.Fatal(err)
			}
			r.Answers = append(r.Answers, ns)
		}
	})
	nx := build("nxdomain", NewQuery(3, "www.336901.com", TypeA, ClassINET), func(r *Message) {
		r.Header.RCode = RCodeNXDomain
		soa, err := MakeSOA("", 86400, SOAData{
			MName: "a.root-servers.net", RName: "nstld.verisign-grs.com",
			Serial: 2015113001, Refresh: 1800, Retry: 900, Expire: 604800, Minimum: 86400,
		})
		if err != nil {
			t.Fatal(err)
		}
		r.Authority = append(r.Authority, soa)
	})
	refused := build("refused", NewQuery(4, "whatever.example", TypeMX, ClassINET), func(r *Message) {
		r.Header.RCode = RCodeRefused
	})
	slip := build("rrl-slip", NewQuery(5, "www.336901.com", TypeA, ClassINET), func(r *Message) {
		r.Header.Truncated = true
	})
	return []struct {
		name  string
		query *Message
		resp  *Message
	}{identity, priming, nx, refused, slip}
}

// TestAppendResponseMatchesEncode proves the tail-splicing encode emits
// byte-identical packets to NewResponse+Encode for every response shape the
// server produces: the tail is carved off a legacy encoding once, then
// replayed through AppendResponse against a fresh decode of the query.
func TestAppendResponseMatchesEncode(t *testing.T) {
	for _, shape := range responseShapes(t) {
		t.Run(shape.name, func(t *testing.T) {
			want, err := shape.resp.Pack()
			if err != nil {
				t.Fatal(err)
			}
			nameLen, err := EncodedNameLen(shape.query.Questions[0].Name)
			if err != nil {
				t.Fatal(err)
			}
			tail := want[HeaderLen+nameLen+4:]

			qpkt, err := shape.query.Pack()
			if err != nil {
				t.Fatal(err)
			}
			var q Message
			if err := DecodeInto(qpkt, &q); err != nil {
				t.Fatal(err)
			}
			h := shape.resp.Header
			got, err := AppendResponse(nil, &q, h.RCode, h.Authoritative, h.Truncated,
				tail, len(shape.resp.Answers), len(shape.resp.Authority), len(shape.resp.Additional))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("packet mismatch:\nlegacy %x\nfast   %x", want, got)
			}
		})
	}
}

// TestFastPathZeroAllocs is the codec half of the PR's 0 allocs/op claim:
// once scratch is warm, neither DecodeInto nor AppendResponse touches the
// heap.
func TestFastPathZeroAllocs(t *testing.T) {
	pkt, err := NewQuery(7, "www.336901.com", TypeA, ClassINET).Pack()
	if err != nil {
		t.Fatal(err)
	}
	var m Message
	if err := DecodeInto(pkt, &m); err != nil { // warm scratch
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := DecodeInto(pkt, &m); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("DecodeInto allocates %.1f allocs/op, want 0", n)
	}

	tail := []byte{0xC0, 0x0C, 0, 1, 0, 1, 0, 0, 0, 0, 0, 4, 127, 0, 0, 1}
	out := make([]byte, 0, 512)
	if n := testing.AllocsPerRun(200, func() {
		var err error
		out, err = AppendResponse(out[:0], &m, RCodeNoError, true, false, tail, 1, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("AppendResponse allocates %.1f allocs/op, want 0", n)
	}
}

// TestFreshDecodeIntoCostsNoMoreThanDecode guards the one-shot case — a
// probe decoding its reply, a TCP connection its first query — where
// DecodeInto runs on a fresh Message: it may allocate its scratch, but no
// more often than Decode allocates its Message.
func TestFreshDecodeIntoCostsNoMoreThanDecode(t *testing.T) {
	resp := NewResponse(NewQuery(9, "hostname.bind", TypeTXT, ClassCHAOS), RCodeNoError)
	txt, err := MakeTXT("hostname.bind", ClassCHAOS, 0, "ns1.ams.k.ripe.net")
	if err != nil {
		t.Fatal(err)
	}
	resp.Answers = append(resp.Answers, txt)
	pkt, err := resp.Pack()
	if err != nil {
		t.Fatal(err)
	}
	legacy := testing.AllocsPerRun(200, func() {
		if _, err := Decode(pkt); err != nil {
			t.Fatal(err)
		}
	})
	fresh := testing.AllocsPerRun(200, func() {
		var m Message
		if err := DecodeInto(pkt, &m); err != nil {
			t.Fatal(err)
		}
	})
	if fresh > legacy {
		t.Fatalf("DecodeInto into a fresh Message allocates %.1f/op, Decode %.1f/op", fresh, legacy)
	}
}

// TestInternCacheBounded floods the name cache with unique names and checks
// the wholesale-clear bound holds.
func TestInternCacheBounded(t *testing.T) {
	var m Message
	for i := 0; i < 3*maxInternedNames; i++ {
		pkt, err := NewQuery(uint16(i), fmt.Sprintf("q%d.example", i), TypeA, ClassINET).Pack()
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeInto(pkt, &m); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(m.scratch.names); n > maxInternedNames {
		t.Fatalf("name cache grew to %d entries, cap is %d", n, maxInternedNames)
	}
}
