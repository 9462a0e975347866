package dnsserver

import (
	"bytes"
	"fmt"
	"net"
	"net/netip"
	"testing"
	"time"

	"github.com/rootevent/anycastddos/internal/chaos"
	"github.com/rootevent/anycastddos/internal/dnswire"
	"github.com/rootevent/anycastddos/internal/rrl"
	"github.com/rootevent/anycastddos/internal/udpbatch"
)

// oracle is the reference every serving path is held to: the reply a root
// server gives, built only from dnswire's public allocating API (Decode,
// NewResponse, Make*, Encode). With a limiter it applies RRL the way the
// UDP side does; the TCP side is held to an oracle without one.
type oracle struct {
	identity string
	limiter  *rrl.Limiter
}

// reply returns the wire reply to pkt from src, or ok=false where the
// server must stay silent.
func (o *oracle) reply(pkt []byte, src netip.AddrPort) ([]byte, bool) {
	q, err := dnswire.Decode(pkt)
	if err != nil || q.Header.Response || len(q.Questions) != 1 {
		return nil, false
	}
	var resp *dnswire.Message
	verdict := rrl.Send
	if o.limiter != nil {
		var key uint32
		if a := src.Addr().Unmap(); a.Is4() {
			b := a.As4()
			key = uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
		}
		verdict = o.limiter.Check(key, 0)
	}
	switch verdict {
	case rrl.Drop:
		return nil, false
	case rrl.Slip:
		resp = dnswire.NewResponse(q, dnswire.RCodeNoError)
		resp.Header.Truncated = true
	default:
		if resp, err = o.answer(q); err != nil {
			return nil, false
		}
	}
	out, err := resp.Encode(nil)
	if err != nil {
		return nil, false
	}
	return out, true
}

func (o *oracle) answer(q *dnswire.Message) (*dnswire.Message, error) {
	question := q.Questions[0]
	switch {
	case question.Class == dnswire.ClassCHAOS && question.Type == dnswire.TypeTXT &&
		(question.Name == "hostname.bind" || question.Name == "id.server"):
		resp := dnswire.NewResponse(q, dnswire.RCodeNoError)
		resp.Header.Authoritative = true
		txt, err := dnswire.MakeTXT(question.Name, dnswire.ClassCHAOS, 0, o.identity)
		if err != nil {
			return nil, err
		}
		resp.Answers = append(resp.Answers, txt)
		return resp, nil
	case question.Class == dnswire.ClassINET && question.Name == "" && question.Type == dnswire.TypeNS:
		resp := dnswire.NewResponse(q, dnswire.RCodeNoError)
		resp.Header.Authoritative = true
		for _, l := range chaos.Letters() {
			ns, err := dnswire.MakeNS("", 3600000, fmt.Sprintf("%c.root-servers.net", l+('a'-'A')))
			if err != nil {
				return nil, err
			}
			resp.Answers = append(resp.Answers, ns)
		}
		return resp, nil
	case question.Class == dnswire.ClassINET:
		resp := dnswire.NewResponse(q, dnswire.RCodeNXDomain)
		soa, err := dnswire.MakeSOA("", 86400, dnswire.SOAData{
			MName: "a.root-servers.net", RName: "nstld.verisign-grs.com",
			Serial: 2015113001, Refresh: 1800, Retry: 900, Expire: 604800, Minimum: 86400,
		})
		if err != nil {
			return nil, err
		}
		resp.Authority = append(resp.Authority, soa)
		return resp, nil
	}
	return dnswire.NewResponse(q, dnswire.RCodeRefused), nil
}

type queryShape struct {
	name string
	pkt  []byte
}

// queryShapes is the query table every serving path is checked on: each
// answer kind, case folding, and traffic no path may answer.
func queryShapes(t testing.TB) []queryShape {
	return []queryShape{
		{"hostname.bind", mustPack(t, dnswire.NewQuery(11, "hostname.bind", dnswire.TypeTXT, dnswire.ClassCHAOS))},
		{"id.server", mustPack(t, dnswire.NewQuery(12, "id.server", dnswire.TypeTXT, dnswire.ClassCHAOS))},
		{"priming", mustPack(t, dnswire.NewQuery(13, ".", dnswire.TypeNS, dnswire.ClassINET))},
		{"nxdomain", mustPack(t, dnswire.NewQuery(14, "www.336901.com", dnswire.TypeA, dnswire.ClassINET))},
		{"nxdomain-deep", mustPack(t, dnswire.NewQuery(15, "a.b.c.example", dnswire.TypeAAAA, dnswire.ClassINET))},
		{"chaos-refused", mustPack(t, dnswire.NewQuery(16, "version.weird", dnswire.TypeTXT, dnswire.ClassCHAOS))},
		{"any-class-refused", mustPack(t, dnswire.NewQuery(17, "x.example", dnswire.TypeA, dnswire.ClassANY))},
		{"mixed-case", mustPack(t, dnswire.NewQuery(18, "HOSTNAME.BIND", dnswire.TypeTXT, dnswire.ClassCHAOS))},
		{"garbage", []byte{1, 2, 3}},
		{"response-pkt", mustPack(t, dnswire.NewResponse(dnswire.NewQuery(19, "x", dnswire.TypeA, dnswire.ClassINET), dnswire.RCodeNoError))},
	}
}

// TestFastPathMatchesLegacy drives every query shape through the UDP
// per-packet step and requires the oracle's bytes — including identical
// accept/reject decisions for traffic neither should answer.
func TestFastPathMatchesLegacy(t *testing.T) {
	s := startServer(t, Config{Letter: 'K', Site: "AMS", Server: 2})
	o := &oracle{identity: s.Identity()}
	src := netip.MustParseAddrPort("10.0.0.1:5353")
	var q dnswire.Message
	var out udpbatch.Message
	for _, tc := range queryShapes(t) {
		want, wantOK := o.reply(tc.pkt, src)
		ok := s.respond(tc.pkt, src, &q, &out)
		if ok != wantOK {
			t.Fatalf("%s: oracle ok=%v udp ok=%v", tc.name, wantOK, ok)
		}
		if ok && !bytes.Equal(want, out.Buf[:out.N]) {
			t.Fatalf("%s: reply bytes differ\noracle %x\nudp    %x", tc.name, want, out.Buf[:out.N])
		}
	}
}

// TestFastPathMatchesLegacyUnderRRL pins the RRL-influenced replies: the
// server and the oracle run identical deterministic limiters over the same
// sequence, and every verdict's wire image (answer, slip, silence) must
// agree.
func TestFastPathMatchesLegacyUnderRRL(t *testing.T) {
	// Negligible refill rate: after the 2-response burst the verdict
	// sequence is Drop, Slip, Drop, Slip... regardless of wall clock, so
	// both limiters see identical verdicts despite distinct clocks.
	rrlCfg := rrl.Config{ResponsesPerSecond: 0.001, Burst: 2, SlipRatio: 2, PrefixBits: 32}
	s := startServer(t, Config{Letter: 'J', Site: "IAD", Server: 1, RRL: &rrlCfg})
	limiter, err := rrl.New(rrlCfg)
	if err != nil {
		t.Fatal(err)
	}
	o := &oracle{identity: s.Identity(), limiter: limiter}

	src := netip.MustParseAddrPort("10.9.8.7:4242")
	pkt := mustPack(t, dnswire.NewQuery(21, "www.336901.com", dnswire.TypeA, dnswire.ClassINET))
	var q dnswire.Message
	var out udpbatch.Message
	sawSlip, sawDrop := false, false
	for i := 0; i < 16; i++ {
		want, wantOK := o.reply(pkt, src)
		ok := s.respond(pkt, src, &q, &out)
		if ok != wantOK {
			t.Fatalf("packet %d: oracle ok=%v udp ok=%v", i, wantOK, ok)
		}
		if !ok {
			sawDrop = true
			continue
		}
		if out.Buf[2]&0x02 != 0 { // TC
			sawSlip = true
		}
		if !bytes.Equal(want, out.Buf[:out.N]) {
			t.Fatalf("packet %d: reply bytes differ\noracle %x\nudp    %x", i, want, out.Buf[:out.N])
		}
	}
	if !sawSlip || !sawDrop {
		t.Fatalf("RRL sequence did not exercise slip (%v) and drop (%v)", sawSlip, sawDrop)
	}
}

// TestTCPMatchesOracle sends every query shape over a real TCP connection:
// answered shapes must come back as the oracle's bytes on the same
// connection, the rest must end the connection without a reply.
func TestTCPMatchesOracle(t *testing.T) {
	s := startTCPServer(t, Config{Letter: 'K', Site: "AMS", Server: 2})
	o := &oracle{identity: s.Identity()}
	var conn net.Conn
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	for _, tc := range queryShapes(t) {
		want, wantOK := o.reply(tc.pkt, netip.AddrPort{})
		if conn == nil {
			var err error
			if conn, err = net.Dial("tcp", s.Addr().String()); err != nil {
				t.Fatal(err)
			}
			conn.SetDeadline(time.Now().Add(2 * time.Second))
		}
		if err := dnswire.WriteTCP(conn, tc.pkt); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, err := dnswire.ReadTCP(conn, nil)
		if (err == nil) != wantOK {
			t.Fatalf("%s: oracle ok=%v, tcp read err=%v", tc.name, wantOK, err)
		}
		if !wantOK {
			conn.Close()
			conn = nil
			continue
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("%s: reply bytes differ\noracle %x\ntcp    %x", tc.name, want, got)
		}
	}
}

// FuzzTCPReply holds the TCP per-message step to the oracle on arbitrary
// bytes: the same accept/ignore verdict, the same reply, and no panic.
func FuzzTCPReply(f *testing.F) {
	for _, tc := range queryShapes(f) {
		f.Add(tc.pkt)
	}
	s, err := Start(Config{Letter: 'K', Site: "AMS", Server: 2})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
	o := &oracle{identity: s.Identity()}
	var q dnswire.Message // shared across inputs, like a connection's scratch
	var out []byte
	f.Fuzz(func(t *testing.T, pkt []byte) {
		want, wantOK := o.reply(pkt, netip.AddrPort{})
		got, ok := s.tcpReply(pkt, &q, out)
		if ok != wantOK {
			t.Fatalf("oracle ok=%v tcp ok=%v", wantOK, ok)
		}
		if !ok {
			return
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("reply bytes differ\noracle %x\ntcp    %x", want, got)
		}
		out = got
	})
}

// TestRespondZeroAllocs holds the whole per-packet server path (decode,
// RRL, encode) to zero heap allocations once worker scratch is warm: for
// one hot source, and for a spoofed flood that gives every packet a new
// /24 once the RRL table is full.
func TestRespondZeroAllocs(t *testing.T) {
	pkt := mustPack(t, dnswire.NewQuery(22, "www.336901.com", dnswire.TypeA, dnswire.ClassINET))
	t.Run("hot", func(t *testing.T) {
		rrlCfg := rrl.DefaultConfig()
		s := startServer(t, Config{Letter: 'K', Site: "LHR", Server: 1, RRL: &rrlCfg})
		srcAP := netip.MustParseAddrPort("10.1.2.3:9999")
		var q dnswire.Message
		out := udpbatch.Message{Buf: make([]byte, 0, 1024)}
		s.respond(pkt, srcAP, &q, &out) // warm decode scratch and tx buffer
		if n := testing.AllocsPerRun(500, func() {
			s.respond(pkt, srcAP, &q, &out)
		}); n != 0 {
			t.Fatalf("respond allocates %.1f allocs/op, want 0", n)
		}
	})
	t.Run("spoofed", func(t *testing.T) {
		rrlCfg := rrl.DefaultConfig()
		rrlCfg.MaxEntries = 256
		s := startServer(t, Config{Letter: 'K', Site: "LHR", Server: 1, RRL: &rrlCfg})
		var q dnswire.Message
		out := udpbatch.Message{Buf: make([]byte, 0, 1024)}
		next := uint32(0)
		spoofed := func() {
			next++
			a := next << 8 // a new /24 every call
			src := netip.AddrPortFrom(netip.AddrFrom4([4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), 1}), 53)
			s.respond(pkt, src, &q, &out)
		}
		for i := 0; i < 64*rrlCfg.MaxEntries; i++ {
			spoofed() // fill the table to its cap
		}
		if n := testing.AllocsPerRun(500, spoofed); n != 0 {
			t.Fatalf("respond allocates %.1f allocs/op under a spoofed flood, want 0", n)
		}
	})
}

// TestTCPReplyZeroAllocs is the TCP half: once a connection's scratch is
// warm, answering another query on it touches no heap.
func TestTCPReplyZeroAllocs(t *testing.T) {
	s := startServer(t, Config{Letter: 'K', Site: "LHR", Server: 1})
	pkt := mustPack(t, dnswire.NewQuery(23, "hostname.bind", dnswire.TypeTXT, dnswire.ClassCHAOS))
	var q dnswire.Message
	out, ok := s.tcpReply(pkt, &q, nil) // warm decode scratch and reply buffer
	if !ok {
		t.Fatal("tcpReply refused the identity query")
	}
	if n := testing.AllocsPerRun(500, func() {
		out, _ = s.tcpReply(pkt, &q, out)
	}); n != 0 {
		t.Fatalf("tcpReply allocates %.1f allocs/op, want 0", n)
	}
}

func mustPack(t testing.TB, m *dnswire.Message) []byte {
	t.Helper()
	pkt, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}
