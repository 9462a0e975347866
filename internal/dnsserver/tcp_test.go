package dnsserver

import (
	"errors"
	"net"
	"syscall"
	"testing"
	"time"

	"github.com/rootevent/anycastddos/internal/dnswire"
	"github.com/rootevent/anycastddos/internal/rrl"
)

// startTCPServer starts a server with TCP beside UDP on an ephemeral port.
// StartTCP binds the port number the kernel chose for UDP, and the TCP
// port space is separate, so another socket may already hold it: on
// EADDRINUSE the pair is closed and a fresh one tried.
func startTCPServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	for try := 1; ; try++ {
		s := startServer(t, cfg)
		err := s.StartTCP()
		if err == nil {
			return s
		}
		s.Close()
		if !errors.Is(err, syscall.EADDRINUSE) || try == 32 {
			t.Fatal(err)
		}
	}
}

// exchangeTCP writes one query over an established stream and decodes the
// reply.
func exchangeTCP(conn net.Conn, q *dnswire.Message) (*dnswire.Message, error) {
	pkt, err := q.Pack()
	if err != nil {
		return nil, err
	}
	if err := dnswire.WriteTCP(conn, pkt); err != nil {
		return nil, err
	}
	raw, err := dnswire.ReadTCP(conn, nil)
	if err != nil {
		return nil, err
	}
	return dnswire.Decode(raw)
}

func TestProbeTCP(t *testing.T) {
	s := startTCPServer(t, Config{Letter: 'K', Site: "AMS", Server: 3})
	p := NewProber(1)
	p.Timeout = 2 * time.Second
	res, err := p.ProbeTCP(s.Addr(), 'K')
	if err != nil {
		t.Fatal(err)
	}
	if !res.ViaTCP || !res.Matched || res.Identity.Server != 3 {
		t.Errorf("result = %+v", res)
	}
}

func TestTCPMultipleQueriesOneConnection(t *testing.T) {
	s := startTCPServer(t, Config{Letter: 'E', Site: "FRA", Server: 1})
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 3; i++ {
		resp, err := exchangeTCP(conn, dnswire.NewQuery(uint16(i+1), "hostname.bind", dnswire.TypeTXT, dnswire.ClassCHAOS))
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if resp.Header.ID != uint16(i+1) {
			t.Fatalf("query %d: id = %d", i, resp.Header.ID)
		}
	}
	// The server books a reply as answered after its write returns, which
	// can be after the client has already read it.
	deadline := time.Now().Add(2 * time.Second)
	for {
		received, answered, _, _ := s.Stats()
		if received >= 3 && answered >= 3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats = %d/%d", received, answered)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTCPBypassesRRL(t *testing.T) {
	// A tight UDP RRL budget must not affect TCP clients: the handshake
	// already proved the source address.
	cfg := rrl.Config{ResponsesPerSecond: 1, Burst: 1, SlipRatio: 0, PrefixBits: 32}
	s := startTCPServer(t, Config{Letter: 'J', Site: "IAD", Server: 1, RRL: &cfg})
	p := NewProber(2)
	p.Timeout = time.Second
	ok := 0
	for i := 0; i < 5; i++ {
		if res, err := p.ProbeTCP(s.Addr(), 'J'); err == nil && res.Matched {
			ok++
		}
	}
	if ok != 5 {
		t.Errorf("TCP successes = %d of 5; RRL must not apply to TCP", ok)
	}
}

func TestUDPTruncationFallsBackToTCP(t *testing.T) {
	// Exhaust the UDP budget so slips (TC=1) come back, then verify the
	// prober transparently completes over TCP.
	cfg := rrl.Config{ResponsesPerSecond: 1, Burst: 1, SlipRatio: 1, PrefixBits: 32}
	s := startTCPServer(t, Config{Letter: 'K', Site: "LHR", Server: 2, RRL: &cfg})
	p := NewProber(3)
	p.Timeout = time.Second
	p.FallbackTCP = true

	// First UDP probe consumes the single token.
	if _, err := p.Probe(s.Addr(), 'K'); err != nil {
		t.Fatalf("first probe: %v", err)
	}
	// Subsequent probes are slipped on UDP and must succeed via TCP.
	res, err := p.Probe(s.Addr(), 'K')
	if err != nil {
		t.Fatalf("fallback probe: %v", err)
	}
	if !res.ViaTCP {
		t.Errorf("result = %+v, want TCP fallback", res)
	}
	if !res.Matched || res.Identity.Site != "LHR" {
		t.Errorf("fallback identity = %+v", res.Identity)
	}
}

func TestTruncatedSurfacedWithoutFallback(t *testing.T) {
	cfg := rrl.Config{ResponsesPerSecond: 1, Burst: 1, SlipRatio: 1, PrefixBits: 32}
	s := startServer(t, Config{Letter: 'K', Site: "LHR", Server: 2, RRL: &cfg})
	p := NewProber(4)
	p.Timeout = time.Second
	if _, err := p.Probe(s.Addr(), 'K'); err != nil {
		t.Fatal(err)
	}
	res, err := p.Probe(s.Addr(), 'K')
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || res.Matched {
		t.Errorf("result = %+v, want bare truncated reply", res)
	}
}

func TestTCPGarbageConnection(t *testing.T) {
	s := startTCPServer(t, Config{Letter: 'K', Site: "AMS", Server: 1})
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// A length prefix promising more than we send: the server must time
	// the connection out without wedging.
	conn.Write([]byte{0xFF, 0xFF, 1, 2, 3})
	conn.Close()
	// The server still answers other clients.
	p := NewProber(5)
	p.Timeout = 2 * time.Second
	if _, err := p.ProbeTCP(s.Addr(), 'K'); err != nil {
		t.Fatalf("server wedged after garbage: %v", err)
	}
}

func TestCloseStopsTCP(t *testing.T) {
	s := startTCPServer(t, Config{Letter: 'K', Site: "AMS", Server: 1})
	addr := s.Addr().String()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := net.DialTimeout("tcp", addr, 300*time.Millisecond); err == nil {
		t.Error("TCP listener still accepting after Close")
	}
}
