package dnsserver

import (
	"errors"
	"net"
	"net/netip"
	"testing"
	"time"

	"github.com/rootevent/anycastddos/internal/dnswire"
	"github.com/rootevent/anycastddos/internal/udpbatch"
)

func TestStatsHelpers(t *testing.T) {
	prev := Stats{Received: 100, Answered: 80, DroppedLoss: 5, DroppedRRL: 10, Ignored: 2}
	cur := Stats{Received: 300, Answered: 240, DroppedLoss: 15, DroppedRRL: 30, Ignored: 6}
	d := cur.Sub(prev)
	want := Stats{Received: 200, Answered: 160, DroppedLoss: 10, DroppedRRL: 20, Ignored: 4}
	if d != want {
		t.Fatalf("Sub: got %+v want %+v", d, want)
	}
	if got := d.LossRate(); got != 0.05 {
		t.Errorf("LossRate: got %v want 0.05", got)
	}
	if got := d.RRLRate(); got != 0.1 {
		t.Errorf("RRLRate: got %v want 0.1", got)
	}
	if got := d.Backlog(); got != 6 {
		t.Errorf("Backlog: got %v want 6", got)
	}

	// A counter reset (restarted server) saturates to zero, never wraps.
	if got := prev.Sub(cur); got != (Stats{}) {
		t.Errorf("Sub after reset: got %+v want zero", got)
	}
	// More resolved than received (transient snapshot skew) saturates too.
	skew := Stats{Received: 10, Answered: 11}
	if got := skew.Backlog(); got != 0 {
		t.Errorf("Backlog skew: got %v want 0", got)
	}
	// Rates on an idle window are zero, not NaN.
	var idle Stats
	if idle.LossRate() != 0 || idle.RRLRate() != 0 {
		t.Errorf("idle rates: got %v/%v", idle.LossRate(), idle.RRLRate())
	}
}

func TestSnapshotCountsIgnored(t *testing.T) {
	s := startServer(t, Start, Config{Letter: 'K', Site: "AMS", Server: 1})
	conn, err := net.DialUDP("udp", nil, s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// A malformed datagram counts as received-but-ignored, keeping
	// Backlog at zero once the worker has processed it.
	if _, err := conn.Write([]byte{0x01, 0x02, 0x03}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	var snap Stats
	for time.Now().Before(deadline) {
		snap = s.Snapshot()
		if snap.Ignored >= 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if snap.Ignored < 1 || snap.Received < 1 {
		t.Fatalf("malformed packet not accounted: %+v", snap)
	}
	if snap.Backlog() != 0 {
		t.Fatalf("ignored packet left phantom backlog: %+v", snap)
	}

	// Snapshot and the legacy Stats() tuple agree.
	received, answered, droppedLoss, droppedRRL := s.Stats()
	if snap2 := s.Snapshot(); snap2.Received != received || snap2.Answered != answered ||
		snap2.DroppedLoss != droppedLoss || snap2.DroppedRRL != droppedRRL {
		t.Fatalf("Snapshot %+v disagrees with Stats (%d,%d,%d,%d)",
			snap2, received, answered, droppedLoss, droppedRRL)
	}
}

var errSendRefused = errors.New("send refused")

// refusingWriter is a batchWriter whose kernel refuses the reply addressed
// to port refuse, stopping at it the way both WriteBatch implementations
// stop at their first failing message.
type refusingWriter struct {
	refuse uint16
	sent   []uint16
}

func (w *refusingWriter) WriteBatch(ms []udpbatch.Message) (int, error) {
	for i := range ms {
		if ms[i].Addr.Port() == w.refuse {
			return i, errSendRefused
		}
		w.sent = append(w.sent, ms[i].Addr.Port())
	}
	return len(ms), nil
}

// TestSendBatchSkipsUnsendableReply fails message k of n for every k: the
// other n-1 replies still go out in order, and the refused one is counted
// as ignored so answered + ignored accounts for every reply.
func TestSendBatchSkipsUnsendableReply(t *testing.T) {
	const n = 6
	tx := make([]udpbatch.Message, n)
	for i := range tx {
		tx[i].Addr = netip.AddrPortFrom(netip.MustParseAddr("10.0.0.1"), uint16(i))
	}
	for k := 0; k < n; k++ {
		s := new(Server)
		w := &refusingWriter{refuse: uint16(k)}
		s.sendBatch(w, tx)
		if len(w.sent) != n-1 {
			t.Fatalf("k=%d: sent %v, want the other %d replies", k, w.sent, n-1)
		}
		for i, port := range w.sent {
			want := uint16(i)
			if i >= k {
				want++
			}
			if port != want {
				t.Fatalf("k=%d: sent %v, want every port but %d in order", k, w.sent, k)
			}
		}
		st := s.Snapshot()
		if st.Answered != n-1 || st.Ignored != 1 {
			t.Fatalf("k=%d: answered %d ignored %d, want %d and 1", k, st.Answered, st.Ignored, n-1)
		}
	}
}

// TestTCPPeerGoneBeforeReply closes the client side right after its query
// is read, so the server's reply write fails: the query must still resolve
// (as ignored), leaving no phantom backlog for the site manager to read as
// queue depth.
func TestTCPPeerGoneBeforeReply(t *testing.T) {
	s := startServer(t, Start, Config{Letter: 'K', Site: "AMS", Server: 1})
	srv, cli := net.Pipe()
	s.wg.Add(1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.handleTCPConn(srv)
	}()
	pkt := mustPack(t, dnswire.NewQuery(31, "hostname.bind", dnswire.TypeTXT, dnswire.ClassCHAOS))
	// net.Pipe is unbuffered: WriteTCP returns only once the server has
	// read the whole query, so the reply is written to a closed peer.
	if err := dnswire.WriteTCP(cli, pkt); err != nil {
		t.Fatal(err)
	}
	cli.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("handler did not return after its peer closed")
	}
	st := s.Snapshot()
	if st.Received != 1 || st.Ignored != 1 || st.Answered != 0 || st.Backlog() != 0 {
		t.Fatalf("unsendable reply booked as %+v, want one received, one ignored, no backlog", st)
	}
}

func TestDrainTCPKeepsUDPServing(t *testing.T) {
	s := startServer(t, StartWithTCP, Config{Letter: 'K', Site: "LHR", Server: 1})

	// Park an idle TCP connection, then drain: it must close promptly.
	idle, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()

	s.SetDraining(true)
	if !s.draining.Load() {
		t.Fatal("draining flag clear after SetDraining(true)")
	}
	if err := idle.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := idle.Read(make([]byte, 1)); err == nil {
		t.Fatal("idle TCP conn survived drain")
	}

	// New TCP connections are refused (accepted then immediately closed),
	// without killing the accept loop.
	fresh, err := net.Dial("tcp", s.Addr().String())
	if err == nil {
		fresh.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, rerr := fresh.Read(make([]byte, 1)); rerr == nil {
			t.Fatal("new TCP conn served while draining")
		}
		fresh.Close()
	}

	// UDP keeps answering: a drained site still serves its residual
	// catchment, it just stops holding TCP retries.
	p := NewProber(1)
	p.Timeout = 2 * time.Second
	res, err := p.Probe(s.Addr(), 'K')
	if err != nil {
		t.Fatalf("UDP probe during drain: %v", err)
	}
	if !res.Matched || res.Identity.Site != "LHR" {
		t.Fatalf("probe during drain: %+v", res)
	}

	// Undrain: TCP service resumes on the same listener.
	s.SetDraining(false)
	deadline := time.Now().Add(2 * time.Second)
	for {
		again, err := net.Dial("tcp", s.Addr().String())
		if err == nil {
			resp, qerr := exchangeTCP(again, dnswire.NewQuery(9, "hostname.bind", dnswire.TypeTXT, dnswire.ClassCHAOS))
			again.Close()
			if qerr == nil && len(resp.Answers) == 1 {
				return
			}
			err = qerr
		}
		if time.Now().After(deadline) {
			t.Fatalf("TCP service did not resume after undrain: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestReadingReportsStoppedWorkers pins the signal the site manager needs
// for a server that stopped answering: Reading is true while any UDP worker
// is in its read loop, and false once every worker has returned, whether
// through Close or through a read error that is not a timeout.
func TestReadingReportsStoppedWorkers(t *testing.T) {
	s, err := Start(Config{Letter: 'K', Site: "AMS", Server: 1, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Reading() {
		t.Fatal("Reading() = false on a running server")
	}
	// Closing the socket under the workers fails their reads for good.
	s.conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for s.Reading() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.Reading() {
		t.Fatal("Reading() = true after every worker's socket was closed")
	}
	s.Close()

	s, err = Start(Config{Letter: 'K', Site: "AMS", Server: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Reading() {
		t.Fatal("Reading() = true after Close")
	}
}
