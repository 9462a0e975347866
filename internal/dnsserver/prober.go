package dnsserver

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"time"

	"github.com/rootevent/anycastddos/internal/chaos"
	"github.com/rootevent/anycastddos/internal/dnswire"
)

// Prober issues measurement queries the way an Atlas VP does: one UDP CHAOS
// TXT query per probe, a per-attempt deadline, capped exponential backoff
// between retries, and identity parsing of the reply. UDP and TCP probes
// differ only in transport; they share one retry loop (retry), one backoff
// (backoffDelay) and one reply parser (parseReply).
//
// A UDP probe runs over a connected socket, and the prober keeps that
// socket for the next probe to the same address when the attempt read its
// reply and parsed it cleanly. Any other outcome — timeout, read or write
// error, cancellation, malformed reply — closes it, so a kept socket never
// carries a stale deadline, a pending ICMP error or a late reply. At most
// one socket per address and maxIdleSockets in total wait between probes;
// a probe finding none idle dials its own, so two in-flight probes never
// share a socket. Close releases the idle sockets. TCP probes dial a fresh
// connection every time, as a TC=1 fallback does.
type Prober struct {
	// Timeout per probe attempt (Atlas uses 5 s). A context deadline
	// shorter than this wins.
	Timeout time.Duration
	// Retries is the number of additional attempts after a timeout.
	Retries int
	// FallbackTCP retries over TCP when a UDP reply arrives truncated
	// (the RRL slip path: TC=1 tells real clients to re-ask over a
	// transport that cannot be spoofed).
	FallbackTCP bool
	// Backoff is the delay before the first retry; it doubles per retry
	// up to MaxBackoff. The jitter multiplier (0.5-1.0x) is drawn from
	// the prober's seed, so a seeded prober retries on a reproducible
	// schedule. Zero disables backoff.
	Backoff time.Duration
	// MaxBackoff caps the exponential growth (default 2 s when zero).
	MaxBackoff time.Duration

	mu     sync.Mutex // guards rng, idle and closed
	rng    *rand.Rand
	idle   map[netip.AddrPort]*udpSock
	closed bool
}

// maxIdleSockets bounds the connected UDP sockets one Prober keeps between
// probes, across all destinations.
const maxIdleSockets = 64

// udpSock is one connected UDP probe socket with the buffers probes over
// it reuse: the outgoing query and the reply.
type udpSock struct {
	conn  *net.UDPConn
	query []byte
	buf   []byte
}

// NewProber creates a prober with the Atlas timeout, no retries, and a
// 200 ms base backoff (felt only when Retries is raised).
func NewProber(seed int64) *Prober {
	return &Prober{
		Timeout:    5 * time.Second,
		Backoff:    200 * time.Millisecond,
		MaxBackoff: 2 * time.Second,
		rng:        rand.New(rand.NewSource(seed)),
	}
}

// ProbeResult is the outcome of one probe.
type ProbeResult struct {
	Identity chaos.Identity
	RawTXT   string
	RTT      time.Duration
	RCode    dnswire.RCode
	// Matched reports whether the reply parsed as the probed letter's
	// pattern; false suggests interception/hijack.
	Matched bool
	// Truncated reports a TC=1 reply (RRL slip); with FallbackTCP set the
	// prober transparently re-asks over TCP instead of surfacing this.
	Truncated bool
	// ViaTCP reports that the final answer came over the TCP fallback.
	ViaTCP bool
}

// Probe errors.
var (
	ErrTimeout  = errors.New("dnsserver: probe timeout")
	ErrBadReply = errors.New("dnsserver: malformed reply")
)

// aLongTimeAgo is a sentinel deadline in the past, used to wake a blocked
// socket read when the context is canceled.
var aLongTimeAgo = time.Unix(1, 0)

// Probe sends a CHAOS hostname.bind TXT query for the given letter to addr.
func (p *Prober) Probe(addr *net.UDPAddr, letter byte) (ProbeResult, error) {
	return p.ProbeContext(context.Background(), addr, letter)
}

// ProbeContext is Probe under a context: cancellation interrupts a blocked
// read or a backoff sleep immediately, returning an error that wraps
// ctx.Err(). Each attempt still gets its own Timeout deadline, so a hung
// server cannot stall a probe past min(Timeout, context deadline).
func (p *Prober) ProbeContext(ctx context.Context, addr *net.UDPAddr, letter byte) (ProbeResult, error) {
	res, err := p.retry(ctx, func() (ProbeResult, error) { return p.probeUDP(ctx, addr, letter) })
	if err == nil && res.Truncated && p.FallbackTCP {
		if tcpRes, tcpErr := p.ProbeTCPContext(ctx, addr, letter); tcpErr == nil {
			return tcpRes, nil
		}
	}
	return res, err
}

// ProbeTCP performs the identity query over DNS-over-TCP.
func (p *Prober) ProbeTCP(addr *net.UDPAddr, letter byte) (ProbeResult, error) {
	return p.ProbeTCPContext(context.Background(), addr, letter)
}

// ProbeTCPContext is ProbeTCP under a context, retried like ProbeContext.
func (p *Prober) ProbeTCPContext(ctx context.Context, addr *net.UDPAddr, letter byte) (ProbeResult, error) {
	return p.retry(ctx, func() (ProbeResult, error) { return p.probeTCP(ctx, addr, letter) })
}

// retry is the one retry loop behind every probe path: it runs attempt
// until it succeeds, fails with anything but a timeout, or exhausts
// Retries, sleeping a jittered backoff between attempts.
func (p *Prober) retry(ctx context.Context, attempt func() (ProbeResult, error)) (ProbeResult, error) {
	var lastErr error
	for n := 0; n <= p.Retries; n++ {
		if n > 0 {
			if err := p.sleep(ctx, p.backoffDelay(n-1)); err != nil {
				return ProbeResult{}, err
			}
		}
		res, err := attempt()
		if err == nil {
			return res, nil
		}
		lastErr = err
		if !errors.Is(err, ErrTimeout) {
			break
		}
	}
	return ProbeResult{}, lastErr
}

// backoffDelay returns the jittered delay before retry number `retry`
// (0-based): Backoff << retry capped at MaxBackoff, scaled by a seeded
// 0.5-1.0x jitter so synchronized probers do not retry in lockstep.
func (p *Prober) backoffDelay(retry int) time.Duration {
	base := p.Backoff
	if base <= 0 {
		return 0
	}
	max := p.MaxBackoff
	if max <= 0 {
		max = 2 * time.Second
	}
	d := base
	for i := 0; i < retry && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	p.mu.Lock()
	jitter := 0.5 + 0.5*p.rng.Float64()
	p.mu.Unlock()
	return time.Duration(float64(d) * jitter)
}

// Close closes the idle UDP sockets and stops keeping sockets between
// probes: later probes still work, each over its own socket. It is safe to
// call more than once.
func (p *Prober) Close() error {
	p.mu.Lock()
	idle := p.idle
	p.idle, p.closed = nil, true
	p.mu.Unlock()
	var errs []error //repolint:allow maprange -- each error names its own socket; their order means nothing
	for _, s := range idle {
		if err := s.conn.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// takeSock returns the idle socket connected to addr, removing it from the
// idle set, or dials a new one when none is idle.
func (p *Prober) takeSock(key netip.AddrPort, addr *net.UDPAddr) (*udpSock, error) {
	p.mu.Lock()
	s := p.idle[key]
	delete(p.idle, key)
	p.mu.Unlock()
	if s != nil {
		return s, nil
	}
	conn, err := net.DialUDP("udp", nil, addr)
	if err != nil {
		return nil, fmt.Errorf("dnsserver: dial: %w", err)
	}
	return &udpSock{conn: conn, buf: make([]byte, 4096)}, nil
}

// putSock keeps s for the next probe to key, or closes it when key already
// has an idle socket, the idle set is full, or the prober is closed.
func (p *Prober) putSock(key netip.AddrPort, s *udpSock) {
	p.mu.Lock()
	if !p.closed && p.idle[key] == nil && len(p.idle) < maxIdleSockets {
		if p.idle == nil {
			p.idle = make(map[netip.AddrPort]*udpSock)
		}
		p.idle[key] = s
		s = nil
	}
	p.mu.Unlock()
	if s != nil {
		s.conn.Close()
	}
}

// queryID draws the next query ID from the prober's seeded stream.
func (p *Prober) queryID() uint16 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return uint16(p.rng.Intn(1 << 16))
}

// sleep waits for d, or returns early (wrapping ctx.Err) on cancellation.
func (p *Prober) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("dnsserver: probe canceled: %w", err)
		}
		return nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return fmt.Errorf("dnsserver: probe canceled: %w", ctx.Err())
	case <-timer.C:
		return nil
	}
}

// attemptDeadline computes one attempt's absolute deadline: start+Timeout,
// clipped by the context deadline when that is sooner.
func (p *Prober) attemptDeadline(ctx context.Context, start time.Time) time.Time {
	deadline := start.Add(p.Timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	return deadline
}

// finishErr maps a socket error at the end of an attempt: a deadline hit
// becomes ErrTimeout, unless the context was the cause. The socket
// deadline can fire a tick before the context's own timer, so an expired
// context deadline is checked by clock, not only via ctx.Err().
func finishErr(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return fmt.Errorf("dnsserver: probe canceled: %w", cerr)
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
			return fmt.Errorf("dnsserver: probe canceled: %w", context.DeadlineExceeded)
		}
		return ErrTimeout
	}
	return err
}

// probeTemplate is the hostname.bind CHAOS TXT query every probe sends,
// packed once with ID 0.
var probeTemplate = sync.OnceValues(func() ([]byte, error) {
	return dnswire.NewQuery(0, "hostname.bind", dnswire.TypeTXT, dnswire.ClassCHAOS).Pack()
})

// probeQuery writes the probe query with the given ID over dst[:0] and
// returns it.
func probeQuery(dst []byte, id uint16) ([]byte, error) {
	tmpl, err := probeTemplate()
	if err != nil {
		return nil, err
	}
	dst = append(dst[:0], tmpl...)
	binary.BigEndian.PutUint16(dst, id)
	return dst, nil
}

// messages recycles decode scratch across probes and TCP connections. Each
// decodes into one Message for its whole life, so a fresh Message per probe
// would allocate its scratch again every time.
var messages = sync.Pool{New: func() any { return new(dnswire.Message) }}

// isReply decodes pkt into m and reports whether it is the response to
// query id.
func isReply(pkt []byte, m *dnswire.Message, id uint16) bool {
	return dnswire.DecodeInto(pkt, m) == nil && m.Header.Response && m.Header.ID == id
}

// parseReply is the one reply parser behind every probe path: the first
// TXT answer is the identity string, parsed against the probed letter's
// naming pattern.
func parseReply(m *dnswire.Message, letter byte, rtt time.Duration) (ProbeResult, error) {
	res := ProbeResult{RTT: rtt, RCode: m.Header.RCode, Truncated: m.Header.Truncated}
	for _, rr := range m.Answers {
		if rr.Type != dnswire.TypeTXT {
			continue
		}
		strs, err := rr.TXT()
		if err != nil || len(strs) == 0 {
			return res, ErrBadReply
		}
		res.RawTXT = strs[0]
		if ident, perr := chaos.Parse(letter, strs[0]); perr == nil {
			res.Identity = ident
			res.Matched = true
		}
		break
	}
	return res, nil
}

// probeUDP is one UDP attempt over a connected socket, so an ICMP
// port-unreachable ends the attempt at the next read instead of running to
// the deadline. The socket is the one kept from the last clean probe to
// addr, or a new one; it is kept again only if this attempt ends clean.
func (p *Prober) probeUDP(ctx context.Context, addr *net.UDPAddr, letter byte) (ProbeResult, error) {
	if err := ctx.Err(); err != nil {
		return ProbeResult{}, fmt.Errorf("dnsserver: probe canceled: %w", err)
	}
	ap := addr.AddrPort()
	key := netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
	s, err := p.takeSock(key, addr)
	if err != nil {
		return ProbeResult{}, err
	}
	res, clean, err := p.exchangeUDP(ctx, s, letter)
	if clean {
		p.putSock(key, s)
	} else {
		s.conn.Close()
	}
	return res, err
}

// exchangeUDP sends one query over s and reads until the matching reply or
// the deadline. clean reports that the reply arrived and parsed without
// error and that cancellation never touched the socket's deadline.
func (p *Prober) exchangeUDP(ctx context.Context, s *udpSock, letter byte) (res ProbeResult, clean bool, err error) {
	// Cancellation must wake a read blocked inside the attempt window. A
	// context that can never be canceled needs no watcher.
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() { s.conn.SetReadDeadline(aLongTimeAgo) })
		defer func() {
			if !stop() {
				clean = false // the watcher fired or is about to: the deadline is poisoned
			}
		}()
	}

	id := p.queryID()
	if s.query, err = probeQuery(s.query, id); err != nil {
		return ProbeResult{}, false, err
	}
	start := time.Now()
	if _, err := s.conn.Write(s.query); err != nil {
		return ProbeResult{}, false, fmt.Errorf("dnsserver: send: %w", err)
	}
	if err := s.conn.SetReadDeadline(p.attemptDeadline(ctx, start)); err != nil {
		return ProbeResult{}, false, err
	}
	m := messages.Get().(*dnswire.Message)
	defer messages.Put(m)
	for {
		n, err := s.conn.Read(s.buf)
		if err != nil {
			return ProbeResult{}, false, finishErr(ctx, err)
		}
		rtt := time.Since(start)
		if !isReply(s.buf[:n], m, id) {
			continue // not our reply; keep reading until deadline
		}
		res, err := parseReply(m, letter, rtt)
		return res, err == nil, err
	}
}

// probeTCP is one attempt over a fresh DNS-over-TCP connection.
func (p *Prober) probeTCP(ctx context.Context, addr *net.UDPAddr, letter byte) (ProbeResult, error) {
	d := net.Dialer{Timeout: p.Timeout}
	conn, err := d.DialContext(ctx, "tcp", addr.String())
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return ProbeResult{}, fmt.Errorf("dnsserver: probe canceled: %w", cerr)
		}
		return ProbeResult{}, fmt.Errorf("dnsserver: tcp dial: %w", err)
	}
	defer conn.Close()
	start := time.Now()
	if err := conn.SetDeadline(p.attemptDeadline(ctx, start)); err != nil {
		return ProbeResult{}, err
	}
	stop := context.AfterFunc(ctx, func() { conn.SetDeadline(aLongTimeAgo) })
	defer stop()

	id := p.queryID()
	pkt, err := probeQuery(nil, id)
	if err != nil {
		return ProbeResult{}, err
	}
	if err := dnswire.WriteTCP(conn, pkt); err != nil {
		return ProbeResult{}, finishErr(ctx, err)
	}
	raw, err := dnswire.ReadTCP(conn, nil)
	if err != nil {
		return ProbeResult{}, finishErr(ctx, err)
	}
	rtt := time.Since(start)
	m := messages.Get().(*dnswire.Message)
	defer messages.Put(m)
	if !isReply(raw, m, id) {
		return ProbeResult{}, ErrBadReply
	}
	res, err := parseReply(m, letter, rtt)
	res.ViaTCP = true
	return res, err
}

// MapCatchment probes every address in addrs once and tallies the sites
// observed — the CHAOS catchment-mapping methodology of §2.1, usable
// against live in-process servers.
func (p *Prober) MapCatchment(addrs []*net.UDPAddr, letter byte) (map[string]int, error) {
	return p.MapCatchmentContext(context.Background(), addrs, letter)
}

// MapCatchmentContext is MapCatchment under a context. On cancellation it
// stops probing immediately and returns the partial tallies together with
// an error naming how far the sweep got.
func (p *Prober) MapCatchmentContext(ctx context.Context, addrs []*net.UDPAddr, letter byte) (map[string]int, error) {
	sites := make(map[string]int)
	var firstErr error
	for done, a := range addrs {
		if cerr := ctx.Err(); cerr != nil {
			return sites, fmt.Errorf("dnsserver: catchment mapping stopped after %d/%d probes: %w",
				done, len(addrs), cerr)
		}
		res, err := p.ProbeContext(ctx, a, letter)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return sites, fmt.Errorf("dnsserver: catchment mapping stopped after %d/%d probes: %w",
					done, len(addrs), err)
			}
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if res.Matched {
			sites[res.Identity.SiteName()]++
		}
	}
	if len(sites) == 0 && firstErr != nil {
		return nil, firstErr
	}
	return sites, nil
}
