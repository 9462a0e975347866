package udpbatch

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"
)

func newPair(t *testing.T) (server, client *net.UDPConn) {
	t.Helper()
	var err error
	server, err = net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	client, err = net.DialUDP("udp", nil, server.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return server, client
}

func newMessages(n, bufSize int) []Message {
	ms := make([]Message, n)
	for i := range ms {
		ms[i].Buf = make([]byte, bufSize)
	}
	return ms
}

// TestRoundTrip pushes a batch through both directions: client sends K
// datagrams, the server batch-reads them all, echoes each one back to its
// source via WriteBatch, and the client checks the payloads.
func TestRoundTrip(t *testing.T) {
	serverConn, clientConn := newPair(t)
	server, err := New(serverConn, 8)
	if err != nil {
		t.Fatal(err)
	}
	const k = 5
	for i := 0; i < k; i++ {
		if _, err := clientConn.Write([]byte(fmt.Sprintf("ping-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	ms := newMessages(8, 512)
	got := 0
	seen := make(map[string]bool)
	serverConn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for got < k {
		n, err := server.ReadBatch(ms[:k-got])
		if err != nil {
			t.Fatalf("ReadBatch after %d: %v", got, err)
		}
		if n == 0 {
			t.Fatal("ReadBatch returned 0 without error")
		}
		for i := 0; i < n; i++ {
			seen[string(ms[i].Buf[:ms[i].N])] = true
			if !ms[i].Addr.IsValid() {
				t.Fatalf("message %d has invalid source address", got+i)
			}
		}
		if sent, err := server.WriteBatch(ms[:n]); err != nil || sent != n {
			t.Fatalf("WriteBatch: sent %d of %d, err %v", sent, n, err)
		}
		got += n
	}
	for i := 0; i < k; i++ {
		if !seen[fmt.Sprintf("ping-%d", i)] {
			t.Fatalf("datagram ping-%d never arrived; got %v", i, seen)
		}
	}
	buf := make([]byte, 512)
	clientConn.SetReadDeadline(time.Now().Add(5 * time.Second))
	echoed := make(map[string]bool)
	for i := 0; i < k; i++ {
		n, err := clientConn.Read(buf)
		if err != nil {
			t.Fatalf("echo read %d: %v", i, err)
		}
		echoed[string(buf[:n])] = true
	}
	for s := range seen {
		if !echoed[s] {
			t.Fatalf("echo of %q never returned; got %v", s, echoed)
		}
	}
}

// TestReadBatchDeadline checks that a deadline on the wrapped conn wakes a
// blocked batch read with a timeout net.Error — the server's drain path.
func TestReadBatchDeadline(t *testing.T) {
	serverConn, _ := newPair(t)
	server, err := New(serverConn, 4)
	if err != nil {
		t.Fatal(err)
	}
	serverConn.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	start := time.Now()
	_, err = server.ReadBatch(newMessages(4, 512))
	if err == nil {
		t.Fatal("ReadBatch returned without error on an idle socket")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("want timeout net.Error, got %T %v", err, err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("deadline wake took implausibly long")
	}
}

// TestSteadyStateAllocs holds both directions to zero heap allocations once
// the Conn is constructed.
func TestSteadyStateAllocs(t *testing.T) {
	serverConn, clientConn := newPair(t)
	server, err := New(serverConn, 4)
	if err != nil {
		t.Fatal(err)
	}
	client, err := New(clientConn, 4)
	if err != nil {
		t.Fatal(err)
	}
	dst := clientConn.RemoteAddr().(*net.UDPAddr).AddrPort()
	out := newMessages(1, 64)
	out[0].N = copy(out[0].Buf, "ping")
	out[0].Addr = dst
	in := newMessages(4, 512)
	serverConn.SetReadDeadline(time.Now().Add(10 * time.Second))

	if n := testing.AllocsPerRun(100, func() {
		if _, err := client.WriteBatch(out); err != nil {
			t.Fatal(err)
		}
		if _, err := server.ReadBatch(in); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("batch round trip allocates %.1f allocs/op, want 0", n)
	}
	if got := in[0].Addr.Port(); got != clientConn.LocalAddr().(*net.UDPAddr).AddrPort().Port() {
		t.Fatalf("source port %d does not match client %v", got, clientConn.LocalAddr())
	}
}

// TestWriteBatchToListener sends one batch from an unconnected socket to
// explicit destinations — the usage of rootbench's flood_socket generator.
func TestWriteBatchToListener(t *testing.T) {
	serverConn, _ := newPair(t)
	src, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	sender, err := New(src, 4)
	if err != nil {
		t.Fatal(err)
	}
	dst := serverConn.LocalAddr().(*net.UDPAddr).AddrPort()
	ms := newMessages(3, 64)
	for i := range ms {
		ms[i].N = copy(ms[i].Buf, fmt.Sprintf("q-%d", i))
		ms[i].Addr = dst
	}
	if n, err := sender.WriteBatch(ms); err != nil || n != len(ms) {
		t.Fatalf("WriteBatch: %d, %v", n, err)
	}
	buf := make([]byte, 64)
	serverConn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i := 0; i < len(ms); i++ {
		n, addr, err := serverConn.ReadFromUDPAddrPort(buf)
		if err != nil {
			t.Fatal(err)
		}
		if addr.Port() != src.LocalAddr().(*net.UDPAddr).AddrPort().Port() {
			t.Fatalf("datagram %d from %v, want source port %v", i, addr, src.LocalAddr())
		}
		if string(buf[:n])[:2] != "q-" {
			t.Fatalf("unexpected payload %q", buf[:n])
		}
	}
}
