package dnsserver

import (
	"errors"
	"net"
	"testing"
	"time"

	"github.com/rootevent/anycastddos/internal/dnswire"
	"github.com/rootevent/anycastddos/internal/rrl"
)

// startServer starts a server through start (Start, or StartWithTCP for
// TCP beside UDP) and closes it when the test ends.
func startServer(t *testing.T, start func(Config) (*Server, error), cfg Config) *Server {
	t.Helper()
	s, err := start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestChaosIdentityOverUDP(t *testing.T) {
	s := startServer(t, Start, Config{Letter: 'K', Site: "AMS", Server: 2})
	p := NewProber(1)
	p.Timeout = 2 * time.Second
	res, err := p.Probe(s.Addr(), 'K')
	if err != nil {
		t.Fatal(err)
	}
	if !res.Matched {
		t.Fatalf("reply %q did not match K pattern", res.RawTXT)
	}
	if res.Identity.Site != "AMS" || res.Identity.Server != 2 {
		t.Errorf("identity = %+v", res.Identity)
	}
	if res.RTT <= 0 || res.RTT > time.Second {
		t.Errorf("rtt = %v", res.RTT)
	}
	if res.RCode != dnswire.RCodeNoError {
		t.Errorf("rcode = %v", res.RCode)
	}
}

func TestIdServerAliasAndRefused(t *testing.T) {
	s := startServer(t, Start, Config{Letter: 'E', Site: "FRA", Server: 1})
	// Raw exchange so we can use id.server and exotic classes.
	conn, err := net.DialUDP("udp", nil, s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	exchange := func(q *dnswire.Message) *dnswire.Message {
		t.Helper()
		pkt, err := q.Pack()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(pkt); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		buf := make([]byte, 4096)
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		m, err := dnswire.Decode(buf[:n])
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	resp := exchange(dnswire.NewQuery(7, "id.server", dnswire.TypeTXT, dnswire.ClassCHAOS))
	if len(resp.Answers) != 1 {
		t.Fatalf("id.server answers = %d", len(resp.Answers))
	}
	strs, err := resp.Answers[0].TXT()
	if err != nil || strs[0] != s.Identity() {
		t.Errorf("id.server TXT = %v err %v", strs, err)
	}

	// CHAOS query for an unknown name is refused.
	resp = exchange(dnswire.NewQuery(8, "version.weird", dnswire.TypeTXT, dnswire.ClassCHAOS))
	if resp.Header.RCode != dnswire.RCodeRefused {
		t.Errorf("weird CHAOS rcode = %v", resp.Header.RCode)
	}
}

func TestRootPrimingResponse(t *testing.T) {
	s := startServer(t, Start, Config{Letter: 'B', Site: "LAX", Server: 1})
	conn, err := net.DialUDP("udp", nil, s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	q := dnswire.NewQuery(9, ".", dnswire.TypeNS, dnswire.ClassINET)
	pkt, _ := q.Pack()
	conn.Write(pkt)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 4096)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := dnswire.Decode(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 13 {
		t.Fatalf("priming answers = %d, want 13", len(resp.Answers))
	}
	target, err := resp.Answers[10].NS()
	if err != nil || target != "k.root-servers.net" {
		t.Errorf("answer 10 = %q err %v", target, err)
	}
}

func TestNXDomainWithSOA(t *testing.T) {
	s := startServer(t, Start, Config{Letter: 'K', Site: "LHR", Server: 1})
	conn, _ := net.DialUDP("udp", nil, s.Addr())
	defer conn.Close()
	q := dnswire.NewQuery(10, "www.336901.com", dnswire.TypeA, dnswire.ClassINET)
	pkt, _ := q.Pack()
	conn.Write(pkt)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 4096)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, _ := dnswire.Decode(buf[:n])
	if resp.Header.RCode != dnswire.RCodeNXDomain {
		t.Errorf("rcode = %v", resp.Header.RCode)
	}
	if len(resp.Authority) != 1 || resp.Authority[0].Type != dnswire.TypeSOA {
		t.Errorf("authority = %+v", resp.Authority)
	}
}

func TestLossInjectionAndTimeout(t *testing.T) {
	s := startServer(t, Start, Config{Letter: 'K', Site: "NRT", Server: 1, LossProb: 1.0})
	p := NewProber(2)
	p.Timeout = 300 * time.Millisecond
	_, err := p.Probe(s.Addr(), 'K')
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want timeout", err)
	}
	_, _, droppedLoss, _ := s.Stats()
	if droppedLoss == 0 {
		t.Error("no loss recorded")
	}
}

func TestRetryAfterTimeout(t *testing.T) {
	// 70% loss with retries should usually succeed; use enough retries
	// to make flakiness negligible (P(fail) = 0.7^8 ≈ 6e-2... use 16).
	s := startServer(t, Start, Config{Letter: 'K', Site: "NRT", Server: 1, LossProb: 0.7, Seed: 5})
	p := NewProber(3)
	p.Timeout = 150 * time.Millisecond
	p.Retries = 16
	p.Backoff = time.Millisecond // keep the 16-retry worst case fast
	p.MaxBackoff = 5 * time.Millisecond
	res, err := p.Probe(s.Addr(), 'K')
	if err != nil {
		t.Fatalf("probe with retries failed: %v", err)
	}
	if !res.Matched {
		t.Error("reply did not match")
	}
}

func TestDelayInjectionShowsInRTT(t *testing.T) {
	s := startServer(t, Start, Config{Letter: 'K', Site: "AMS", Server: 1, Delay: 120 * time.Millisecond})
	p := NewProber(4)
	p.Timeout = 2 * time.Second
	res, err := p.Probe(s.Addr(), 'K')
	if err != nil {
		t.Fatal(err)
	}
	if res.RTT < 100*time.Millisecond {
		t.Errorf("rtt = %v, want >= 120ms injected delay", res.RTT)
	}
}

func TestRRLSuppressesFlood(t *testing.T) {
	cfg := rrl.Config{ResponsesPerSecond: 2, Burst: 2, SlipRatio: 0, PrefixBits: 32}
	s := startServer(t, Start, Config{Letter: 'J', Site: "IAD", Server: 1, RRL: &cfg})
	p := NewProber(5)
	p.Timeout = 200 * time.Millisecond
	ok, timeouts := 0, 0
	for i := 0; i < 10; i++ {
		if _, err := p.Probe(s.Addr(), 'J'); err == nil {
			ok++
		} else if errors.Is(err, ErrTimeout) {
			timeouts++
		}
	}
	if ok == 0 {
		t.Error("burst should allow some replies")
	}
	if timeouts == 0 {
		t.Error("RRL should suppress the flood tail")
	}
	_, _, _, droppedRRL := s.Stats()
	if droppedRRL == 0 {
		t.Error("no RRL drops recorded")
	}
}

func TestMapCatchment(t *testing.T) {
	s1 := startServer(t, Start, Config{Letter: 'K', Site: "AMS", Server: 1})
	s2 := startServer(t, Start, Config{Letter: 'K', Site: "LHR", Server: 1})
	s3 := startServer(t, Start, Config{Letter: 'K', Site: "AMS", Server: 2})
	p := NewProber(6)
	p.Timeout = 2 * time.Second
	sites, err := p.MapCatchment([]*net.UDPAddr{s1.Addr(), s2.Addr(), s3.Addr()}, 'K')
	if err != nil {
		t.Fatal(err)
	}
	if sites["K-AMS"] != 2 || sites["K-LHR"] != 1 {
		t.Errorf("catchment = %v", sites)
	}
}

func TestServerRejectsGarbageSilently(t *testing.T) {
	s := startServer(t, Start, Config{Letter: 'K', Site: "AMS", Server: 1})
	conn, _ := net.DialUDP("udp", nil, s.Addr())
	defer conn.Close()
	conn.Write([]byte{1, 2, 3})
	conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	buf := make([]byte, 64)
	if _, err := conn.Read(buf); err == nil {
		t.Error("garbage got a reply")
	}
	received, answered, _, _ := s.Stats()
	if received == 0 || answered != 0 {
		t.Errorf("stats = recv %d ans %d", received, answered)
	}
}

func TestStartErrors(t *testing.T) {
	if _, err := Start(Config{Letter: 'Z', Site: "AMS", Server: 1}); err == nil {
		t.Error("unknown letter should fail")
	}
	if _, err := Start(Config{Letter: 'K', Site: "AMS", Server: 1, Addr: "999.0.0.1:x"}); err == nil {
		t.Error("bad addr should fail")
	}
	bad := rrl.Config{ResponsesPerSecond: -1}
	if _, err := Start(Config{Letter: 'K', Site: "AMS", Server: 1, RRL: &bad}); err == nil {
		t.Error("bad RRL config should fail")
	}
}

func TestDoubleCloseSafe(t *testing.T) {
	s, err := Start(Config{Letter: 'K', Site: "AMS", Server: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second close = %v", err)
	}
}
