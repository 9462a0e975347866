package dnsserver

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"github.com/rootevent/anycastddos/internal/dnswire"
)

// sourceServer runs a UDP server that sends answer(query) back to each
// query's source and reports that source, dropping reports nobody reads.
// A nil answer echoes the query with QR set: an empty NOERROR response.
func sourceServer(t *testing.T, answer func(q []byte) []byte) (*net.UDPAddr, <-chan netip.AddrPort) {
	t.Helper()
	if answer == nil {
		answer = func(q []byte) []byte { q[2] |= 0x80; return q }
	}
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	from := make(chan netip.AddrPort, 1)
	done := make(chan struct{})
	t.Cleanup(func() { conn.Close(); <-done })
	go func() {
		defer close(done)
		buf := make([]byte, 512)
		for {
			n, src, err := conn.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			select {
			case from <- src:
			default:
			}
			conn.WriteToUDPAddrPort(answer(buf[:n]), src)
		}
	}()
	return conn.LocalAddr().(*net.UDPAddr), from
}

func TestProbeQueryMatchesPack(t *testing.T) {
	var buf []byte
	for _, id := range []uint16{0, 1, 0x1234, 0xFFFF} {
		want, err := dnswire.NewQuery(id, "hostname.bind", dnswire.TypeTXT, dnswire.ClassCHAOS).Pack()
		if err != nil {
			t.Fatal(err)
		}
		// One buffer across IDs, as a kept socket reuses it.
		if buf, err = probeQuery(buf, id); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, want) {
			t.Errorf("ID %#04x: template query % x, Pack % x", id, buf, want)
		}
	}
}

func TestProberReusesSocketAfterCleanProbe(t *testing.T) {
	addr, from := sourceServer(t, nil)
	p := NewProber(1)
	defer p.Close()
	p.Timeout = 2 * time.Second
	var ports []uint16
	for i := 0; i < 2; i++ {
		if _, err := p.Probe(addr, 'K'); err != nil {
			t.Fatal(err)
		}
		ports = append(ports, (<-from).Port())
		if n := p.idleCount(); n != 1 {
			t.Fatalf("after probe %d: %d idle sockets, want 1", i, n)
		}
	}
	if ports[0] != ports[1] {
		t.Errorf("second probe came from port %d, first from %d: the kept socket was not reused", ports[1], ports[0])
	}
}

func TestProberDropsSocketOfClosedServer(t *testing.T) {
	s := startServer(t, Start, Config{Letter: 'K', Site: "AMS", Server: 1})
	p := NewProber(2)
	defer p.Close()
	p.Timeout = 5 * time.Second
	if _, err := p.Probe(s.Addr(), 'K'); err != nil {
		t.Fatal(err)
	}
	if n := p.idleCount(); n != 1 {
		t.Fatalf("%d idle sockets after a clean probe, want 1", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err := p.Probe(s.Addr(), 'K')
	if err == nil || errors.Is(err, ErrTimeout) {
		t.Fatalf("probe of a closed server: err = %v, want the port-unreachable error", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("port-unreachable took %v to end the attempt on a kept socket", elapsed)
	}
	if n := p.idleCount(); n != 0 {
		t.Errorf("%d idle sockets after a failed probe, want 0", n)
	}
}

func TestProberDropsSocketAfterTimeout(t *testing.T) {
	p := NewProber(3)
	defer p.Close()
	p.Timeout = 50 * time.Millisecond
	if _, err := p.Probe(hungAddr(t), 'K'); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if n := p.idleCount(); n != 0 {
		t.Errorf("%d idle sockets after a timeout, want 0", n)
	}
}

func TestProberDropsSocketAfterCancel(t *testing.T) {
	p := NewProber(4)
	defer p.Close()
	p.Timeout = 30 * time.Second
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	if _, err := p.ProbeContext(ctx, hungAddr(t), 'K'); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := p.idleCount(); n != 0 {
		t.Errorf("%d idle sockets after a canceled probe, want 0", n)
	}
}

func TestProberDropsSocketAfterBadReply(t *testing.T) {
	resp := dnswire.NewResponse(dnswire.NewQuery(0, "hostname.bind", dnswire.TypeTXT, dnswire.ClassCHAOS), dnswire.RCodeNoError)
	rr, err := dnswire.MakeTXT("hostname.bind", dnswire.ClassCHAOS, 0) // a TXT answer with no strings
	if err != nil {
		t.Fatal(err)
	}
	resp.Answers = append(resp.Answers, rr)
	bad := mustPack(t, resp)
	addr, _ := sourceServer(t, func(q []byte) []byte {
		copy(bad[:2], q[:2])
		return bad
	})
	p := NewProber(8)
	defer p.Close()
	p.Timeout = 2 * time.Second
	if _, err := p.Probe(addr, 'K'); !errors.Is(err, ErrBadReply) {
		t.Fatalf("err = %v, want ErrBadReply", err)
	}
	if n := p.idleCount(); n != 0 {
		t.Errorf("%d idle sockets after a malformed reply, want 0", n)
	}
}

// TestProberConcurrentProbesKeepOneSocketPerServer drives one prober from
// 8 goroutines against 3 servers. A socket shared by two in-flight probes
// would hand one probe's reply to the other, which discards it as a
// foreign ID, and the first would then time out.
func TestProberConcurrentProbesKeepOneSocketPerServer(t *testing.T) {
	var servers []*Server
	for i, site := range []string{"AMS", "LHR", "NRT"} {
		servers = append(servers, startServer(t, Start, Config{Letter: 'K', Site: site, Server: i + 1}))
	}
	p := NewProber(5)
	defer p.Close()
	p.Timeout = 2 * time.Second
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := servers[(g+i)%len(servers)]
				res, err := p.Probe(s.Addr(), 'K')
				if err != nil {
					t.Errorf("goroutine %d probe %d: %v", g, i, err)
					return
				}
				if !res.Matched || res.RawTXT != s.Identity() {
					t.Errorf("goroutine %d probe %d: got %q from %s", g, i, res.RawTXT, s.Identity())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// Every probe ended clean and ends by keeping its socket or finding
	// one already kept, so each server ends with exactly one.
	if n := p.idleCount(); n != len(servers) {
		t.Errorf("%d idle sockets, want one per server (%d)", n, len(servers))
	}
}

func TestMapCatchmentKeepsAtMostTheBound(t *testing.T) {
	addrs := make([]*net.UDPAddr, maxIdleSockets+4)
	for i := range addrs {
		addrs[i], _ = sourceServer(t, nil)
	}
	p := NewProber(6)
	defer p.Close()
	p.Timeout = 2 * time.Second
	if _, err := p.MapCatchment(addrs, 'K'); err != nil {
		t.Fatal(err)
	}
	if n := p.idleCount(); n != maxIdleSockets {
		t.Errorf("%d idle sockets after probing %d servers, want the bound %d", n, len(addrs), maxIdleSockets)
	}
}

func TestProberClose(t *testing.T) {
	s := startServer(t, Start, Config{Letter: 'K', Site: "AMS", Server: 1})
	p := NewProber(7)
	p.Timeout = 2 * time.Second
	if _, err := p.Probe(s.Addr(), 'K'); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if n := p.idleCount(); n != 0 {
		t.Fatalf("%d idle sockets after Close, want 0", n)
	}
	res, err := p.Probe(s.Addr(), 'K')
	if err != nil || !res.Matched {
		t.Fatalf("probe after Close: %+v, %v", res, err)
	}
	if n := p.idleCount(); n != 0 {
		t.Errorf("%d idle sockets after a probe on a closed prober, want 0", n)
	}
	if err := p.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
}
