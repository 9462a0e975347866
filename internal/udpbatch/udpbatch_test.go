package udpbatch

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"slices"
	"strings"
	"syscall"
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

	// A run of equal datagrams to one peer goes out as one coalesced
	// header, still without allocating.
	gso := coalescing(client) // false on a kernel without UDP GSO
	run := newMessages(4, 64)
	for i := range run {
		run[i].N = copy(run[i].Buf, "pong")
		run[i].Addr = dst
	}
	if n := testing.AllocsPerRun(100, func() {
		if sent, err := client.WriteBatch(run); err != nil || sent != len(run) {
			t.Fatalf("WriteBatch(run) = %d, %v", sent, err)
		}
		for got := 0; got < len(run); {
			n, err := server.ReadBatch(in)
			if err != nil {
				t.Fatal(err)
			}
			got += n
		}
	}); n != 0 {
		t.Fatalf("coalesced round trip allocates %.1f allocs/op, want 0", n)
	}
	if gso && (!coalescing(client) || lastHeaders(client) != 1) {
		t.Fatalf("run of %d laid out in %d headers (coalescing %v), want 1", len(run), lastHeaders(client), coalescing(client))
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

// outgoing is one datagram to send: its payload and the index of the peer
// socket it goes to.
type outgoing struct {
	peer    int
	payload string
}

// received is one datagram as its receiver saw it.
type received struct {
	peer       int // index of the receiving socket
	fromSender bool
	payload    string
}

// deliver sends out from a fresh unconnected socket to fresh peer sockets
// through one WriteBatch, coalescing or not, and returns what the peers
// received (peer 0's datagrams first, each peer's in arrival order) and
// the number of headers the write used.
func deliver(t *testing.T, coalesce bool, peers int, out []outgoing) ([]received, int) {
	t.Helper()
	socks := make([]*net.UDPConn, peers)
	want := make([]int, peers)
	for i := range socks {
		s, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		s.SetReadBuffer(1 << 20)
		socks[i] = s
	}
	src, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	sender, err := New(src, len(out))
	if err != nil {
		t.Fatal(err)
	}
	if !coalesce {
		perDatagram(sender)
	} else if batched && !coalescing(sender) {
		t.Skip("kernel without UDP GSO")
	}
	ms := make([]Message, len(out))
	for i, o := range out {
		ms[i] = Message{Buf: []byte(o.payload), N: len(o.payload), Addr: socks[o.peer].LocalAddr().(*net.UDPAddr).AddrPort()}
		want[o.peer]++
	}
	if n, err := sender.WriteBatch(ms); err != nil || n != len(ms) {
		t.Fatalf("WriteBatch = %d, %v; want %d, nil", n, err, len(ms))
	}
	headers := lastHeaders(sender)
	from := src.LocalAddr().(*net.UDPAddr).AddrPort()
	var got []received
	buf := make([]byte, 1<<16)
	for p, s := range socks {
		s.SetReadDeadline(time.Now().Add(5 * time.Second))
		for i := 0; i < want[p]; i++ {
			n, addr, err := s.ReadFromUDPAddrPort(buf)
			if err != nil {
				t.Fatalf("peer %d datagram %d of %d: %v", p, i, want[p], err)
			}
			got = append(got, received{peer: p, fromSender: addr == from, payload: string(buf[:n])})
		}
	}
	return got, headers
}

// TestWriteBatchCoalescing sends each batch through the coalesced layout
// and one datagram per header and requires both to deliver exactly the
// batch: the same bytes, from the sender, to the same peer, in order. It
// also pins how many headers the coalesced layout uses.
func TestWriteBatchCoalescing(t *testing.T) {
	// batch builds n datagrams; datagram i has size(i) bytes, is tagged
	// with i, and goes to peer(i).
	batch := func(n int, size, peer func(i int) int) []outgoing {
		out := make([]outgoing, n)
		for i := range out {
			b := []byte(strings.Repeat(".", size(i)))
			copy(b, fmt.Sprintf("%d:", i))
			out[i] = outgoing{peer: peer(i), payload: string(b)}
		}
		return out
	}
	bytes := func(n int) func(int) int { return func(int) int { return n } }
	peer0 := func(int) int { return 0 }
	cases := []struct {
		name    string
		peers   int
		out     []outgoing
		headers int
	}{
		{"one_peer_32_equal", 1, batch(32, bytes(40), peer0), 1},
		// Runs of 3, 1, 3, 1, ... alternating peers: 0 0 0 1 0 0 0 1 ...
		{"two_peers_interleaved", 2, batch(32, bytes(40), func(i int) int { return i % 4 / 3 }), 16},
		{"odd_length_mid_run", 1, batch(32, func(i int) int {
			if i == 13 {
				return 41
			}
			return 40
		}, peer0), 3},
		{"over_segment_cap", 1, batch(100, bytes(20), peer0), 2},
		// maxRunBytes / 1900 = 34 segments per run.
		{"over_byte_cap", 1, batch(36, bytes(1900), peer0), 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want []received
			for p := 0; p < tc.peers; p++ {
				for _, o := range tc.out {
					if o.peer == p {
						want = append(want, received{peer: p, fromSender: true, payload: o.payload})
					}
				}
			}
			plain, plainHeaders := deliver(t, false, tc.peers, tc.out)
			coalesced, headers := deliver(t, true, tc.peers, tc.out)
			if !slices.Equal(plain, want) {
				t.Fatalf("per-datagram path delivered %v, want %v", plain, want)
			}
			if !slices.Equal(coalesced, want) {
				t.Fatalf("coalesced path delivered %v, want %v", coalesced, want)
			}
			if !batched {
				return
			}
			if plainHeaders != len(tc.out) {
				t.Fatalf("per-datagram path used %d headers for %d messages", plainHeaders, len(tc.out))
			}
			if headers != tc.headers {
				t.Fatalf("coalesced path used %d headers, want %d", headers, tc.headers)
			}
		})
	}
}

// TestWriteBatchRunRefused has the kernel refuse every segmented send (a
// socket without UDP checksums): the refused run is resent one datagram
// per header, the count stays in messages, everything arrives in order,
// and the Conn stops coalescing.
func TestWriteBatchRunRefused(t *testing.T) {
	sink, _ := newPair(t)
	src, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	refuseGSO(t, src)
	sender, err := New(src, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !coalescing(sender) {
		t.Skip("kernel without UDP GSO")
	}
	dst := sink.LocalAddr().(*net.UDPAddr).AddrPort()
	// One lone datagram, then runs of 8 and 4.
	ms := newMessages(13, 64)
	for i := range ms {
		n := 12
		if i >= 9 {
			n = 20
		}
		ms[i].N = copy(ms[i].Buf, fmt.Sprintf("%-*d", n, i))
		ms[i].Addr = dst
	}
	ms[0].N = 5
	if n, err := sender.WriteBatch(ms); err != nil || n != len(ms) {
		t.Fatalf("WriteBatch = %d, %v; want %d, nil", n, err, len(ms))
	}
	if coalescing(sender) {
		t.Fatal("Conn still coalesces after the kernel refused a run")
	}
	buf := make([]byte, 64)
	sink.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i := range ms {
		n, err := sink.Read(buf)
		if err != nil {
			t.Fatalf("datagram %d: %v", i, err)
		}
		if got, want := string(buf[:n]), string(ms[i].Buf[:ms[i].N]); got != want {
			t.Fatalf("datagram %d = %q, want %q", i, got, want)
		}
	}
	if n, err := sender.WriteBatch(ms[1:9]); err != nil || n != 8 || lastHeaders(sender) != 8 {
		t.Fatalf("WriteBatch after refusal = %d, %v in %d headers; want 8 per datagram", n, err, lastHeaders(sender))
	}
}

// TestWriteBatchRunToBadPort sends a run the kernel refuses for its
// destination, not its segmentation (port 0 is EINVAL either way): the
// per-datagram resend fails on its first datagram, so WriteBatch reports
// the messages before the run, exactly as the per-datagram path does, and
// the Conn keeps coalescing. It then resumes past each refused message as
// dnsserver's sendBatch does, and the refused run must cost at most one
// sendmmsg more than it does laid out per datagram: the rest of the run is
// not tried as a run again.
func TestWriteBatchRunToBadPort(t *testing.T) {
	sink, _ := newPair(t)
	good := sink.LocalAddr().(*net.UDPAddr).AddrPort()
	bad := netip.AddrPortFrom(good.Addr(), 0)
	var writes [2]int
	for k, coalesce := range []bool{false, true} {
		src, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		sender, err := New(src, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !coalesce {
			perDatagram(sender)
		}
		calls := countWrites(sender)
		before := coalescing(sender)
		ms := newMessages(8, 64)
		for i := range ms {
			ms[i].N = copy(ms[i].Buf, "payload")
			ms[i].Addr = good
			if i >= 2 && i < 6 {
				ms[i].Addr = bad
			}
		}
		// Linux answers port 0 with EINVAL; other systems pick their own errno.
		n, err := sender.WriteBatch(ms)
		if n != 2 || err == nil || (batched && !errors.Is(err, syscall.EINVAL)) {
			t.Fatalf("coalesce=%v: WriteBatch = %d, %v; want 2, EINVAL", coalesce, n, err)
		}
		if coalescing(sender) != before {
			t.Fatalf("coalesce=%v: coalescing went %v → %v on a refused destination", coalesce, before, coalescing(sender))
		}
		sent, refused := n, 1
		for tx := ms[n+1:]; len(tx) > 0; {
			n, err := sender.WriteBatch(tx)
			sent += n
			if err == nil {
				break
			}
			refused++
			tx = tx[n+1:]
		}
		if sent != 4 || refused != 4 {
			t.Fatalf("coalesce=%v: %d sent and %d refused; want 4 and 4", coalesce, sent, refused)
		}
		if coalescing(sender) != before {
			t.Fatalf("coalesce=%v: coalescing went %v → %v after the refused run", coalesce, before, coalescing(sender))
		}
		writes[k] = *calls
	}
	if writes[1] > writes[0]+1 {
		t.Fatalf("the refused run took %d sendmmsg calls coalesced, %d per datagram; want at most one more", writes[1], writes[0])
	}
}
