package dnsserver

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"
)

// hungAddr binds a UDP socket that never replies — the "hung server" a
// hardened prober must not block on.
func hungAddr(t *testing.T) *net.UDPAddr {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn.LocalAddr().(*net.UDPAddr)
}

func TestHungServerCannotBlockPastDeadline(t *testing.T) {
	addr := hungAddr(t)
	p := NewProber(1)
	p.Timeout = 150 * time.Millisecond
	start := time.Now()
	_, err := p.Probe(addr, 'K')
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("probe took %v against a hung server; per-attempt deadline not enforced", elapsed)
	}
}

func TestProbeContextCancelWakesBlockedRead(t *testing.T) {
	addr := hungAddr(t)
	p := NewProber(2)
	p.Timeout = 30 * time.Second // the context, not the timeout, must end this
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	start := time.Now()
	_, err := p.ProbeContext(ctx, addr, 'K')
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancellation took %v to interrupt a blocked read", elapsed)
	}
}

func TestProbeContextDeadlineClipsTimeout(t *testing.T) {
	addr := hungAddr(t)
	p := NewProber(3)
	p.Timeout = 30 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := p.ProbeContext(ctx, addr, 'K')
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("attempt ran %v past a 100ms context deadline", elapsed)
	}
}

func TestBackoffDeterministicPerSeed(t *testing.T) {
	delays := func(seed int64) []time.Duration {
		p := NewProber(seed)
		var ds []time.Duration
		for retry := 0; retry < 8; retry++ {
			ds = append(ds, p.backoffDelay(retry))
		}
		return ds
	}
	a, b := delays(7), delays(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("retry %d: same seed gave %v then %v", i, a[i], b[i])
		}
	}
	c := delays(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical backoff schedules")
	}
	// Bounds: jitter keeps every delay in [Backoff/2, MaxBackoff].
	p := NewProber(9)
	for retry := 0; retry < 12; retry++ {
		d := p.backoffDelay(retry)
		if d < p.Backoff/2 || d > p.MaxBackoff {
			t.Errorf("retry %d: delay %v outside [%v, %v]", retry, d, p.Backoff/2, p.MaxBackoff)
		}
	}
	if (&Prober{}).backoffDelay(3) != 0 {
		t.Error("zero Backoff should disable the delay")
	}
}

func TestBackoffCancellationInterruptsSleep(t *testing.T) {
	addr := hungAddr(t)
	p := NewProber(4)
	p.Timeout = 50 * time.Millisecond
	p.Retries = 10
	p.Backoff = 30 * time.Second // cancellation must interrupt this sleep
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(150*time.Millisecond, cancel)
	start := time.Now()
	_, err := p.ProbeContext(ctx, addr, 'K')
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("backoff sleep held the probe for %v after cancellation", elapsed)
	}
}

func TestMapCatchmentContextReturnsPartialTallies(t *testing.T) {
	live := startServer(t, Start, Config{Letter: 'K', Site: "AMS", Server: 1})
	hung := hungAddr(t)
	p := NewProber(5)
	p.Timeout = 30 * time.Second
	addrs := []*net.UDPAddr{live.Addr(), hung, hung, hung}
	ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer cancel()
	sites, err := p.MapCatchmentContext(ctx, addrs, 'K')
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if sites["K-AMS"] != 1 {
		t.Errorf("partial tallies = %v, want the completed K-AMS probe", sites)
	}
	for _, want := range []string{"stopped after", "/4 probes"} {
		if err == nil || !contains(err.Error(), want) {
			t.Errorf("error %q does not report progress (%q)", err, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestCloseDrainsInFlightUDP proves graceful drain: a reply being delayed
// inside the server when Close begins must still reach the client.
func TestCloseDrainsInFlightUDP(t *testing.T) {
	s, err := Start(Config{Letter: 'K', Site: "AMS", Server: 1, Delay: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	p := NewProber(6)
	p.Timeout = 5 * time.Second
	type probeOut struct {
		res ProbeResult
		err error
	}
	ch := make(chan probeOut, 1)
	go func() {
		res, err := p.Probe(s.Addr(), 'K')
		ch <- probeOut{res, err}
	}()
	time.Sleep(80 * time.Millisecond) // the server is now inside its Delay
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	out := <-ch
	if out.err != nil {
		t.Fatalf("in-flight probe lost during drain: %v", out.err)
	}
	if !out.res.Matched {
		t.Error("drained reply did not match")
	}
}

func TestCloseDrainsInFlightTCP(t *testing.T) {
	s := startServer(t, StartWithTCP, Config{Letter: 'K', Site: "LHR", Server: 1})
	p := NewProber(7)
	p.Timeout = 5 * time.Second
	// Complete one exchange, then Close while the handler is blocked
	// reading the next query on the kept-alive connection. Close must
	// return promptly (well inside the 5s idle timeout) without hanging
	// on the parked handler.
	if _, err := p.ProbeTCP(s.Addr(), 'K'); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	time.Sleep(50 * time.Millisecond) // let the handler park in its read
	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close hung on an idle TCP connection")
	}
}
