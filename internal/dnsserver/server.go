// Package dnsserver implements a small authoritative UDP DNS server and a
// measurement prober over real sockets, using only the standard library.
//
// Each Server instance plays the role of one server at one anycast site: it
// answers the CHAOS identity queries (hostname.bind / id.server, RFC 4892)
// with its letter's naming pattern, serves root-zone NS referrals for IN
// queries, and applies Response Rate Limiting. Loss and delay injection
// turn a healthy server into a "degraded absorber" for live experiments
// that mirror the simulation (examples/livechaos).
//
// The UDP packet path is built for flood rates: Config.Workers sharded
// reader goroutines pull batches off the shared socket (internal/udpbatch),
// decode into per-worker scratch (dnswire.DecodeInto), answer by splicing
// precomputed response tails (dnswire.AppendResponse), and send batched
// replies — zero heap allocations per packet once warm, with all counters
// atomic and RRL sharded so no lock sits on the per-packet path. The TCP
// side answers through the same reply function, minus RRL, with the same
// per-connection scratch reuse. Every reply is byte-identical to the
// reference built from dnswire's allocating Decode/NewResponse/Encode
// (equivalence_test.go holds both transports to it).
package dnsserver

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rootevent/anycastddos/internal/chaos"
	"github.com/rootevent/anycastddos/internal/dnswire"
	"github.com/rootevent/anycastddos/internal/rrl"
	"github.com/rootevent/anycastddos/internal/udpbatch"
)

// Config describes one server instance.
type Config struct {
	Letter byte
	Site   string // IATA code
	Server int    // 1-based server index within the site

	// Addr is the UDP listen address; empty means 127.0.0.1:0 (ephemeral).
	Addr string

	// RRL optionally enables response rate limiting. Its Shards field
	// defaults to the worker count so packet workers rarely contend.
	RRL *rrl.Config

	// Workers is the number of UDP packet workers sharing the socket
	// (0 = 1). Each has its own buffers, decode scratch, and loss RNG.
	Workers int

	// Batch is the number of datagrams moved per recvmmsg/sendmmsg batch
	// (0 = 32; 1 effectively disables batching).
	Batch int

	// Impairment models an overloaded site: each request is dropped with
	// probability LossProb and successful replies are delayed by Delay.
	LossProb float64
	Delay    time.Duration

	// Seed drives the loss coins. Each worker draws from its own RNG
	// seeded by splitmix64(Seed, worker): for a fixed seed every worker's
	// coin sequence is reproducible, and the aggregate drop rate is
	// worker-count-independent (each stream is uniform; only the
	// packet-to-worker assignment varies). Single-worker runs therefore
	// reproduce exactly; multi-worker runs reproduce in distribution.
	Seed int64
}

// defaultBatch is the per-syscall datagram budget when Config.Batch is 0.
const defaultBatch = 32

// Server is a running UDP DNS responder.
type Server struct {
	cfg      Config
	identity string
	conn     *net.UDPConn
	limiter  *rrl.Limiter
	start    time.Time

	// closed flips once in Close. The UDP workers read it lock-free; the
	// TCP paths re-check it under mu (see Close for the deadline
	// handshake that makes the drain race-free).
	closed atomic.Bool

	mu       sync.Mutex // guards tcpLn, tcpConns, and the TCP closed/deadline protocol
	tcpLn    *net.TCPListener
	tcpConns map[net.Conn]struct{}

	wg sync.WaitGroup

	received, answered, droppedLoss, droppedRRL atomic.Uint64

	// ignored counts requests that produced no response for protocol
	// reasons (malformed, response-bit set, multi-question, encode
	// failure) or whose reply the kernel refused to send, so Stats
	// snapshots can account for every received packet.
	ignored atomic.Uint64

	// draining flips while the TCP side is gracefully shedding
	// connections (SetDraining); unlike closed it is reversible.
	draining atomic.Bool

	// injectors counts NewInjector calls, giving each in-process lane a
	// distinct RNG stream (see injectorStream).
	injectors atomic.Int64

	// Precomputed response tails (sections after the question), carved
	// from the allocating encoder's output at startup; see buildTails.
	identityTail, primingTail, nxdomainTail []byte

	// readers counts the UDP workers still in their read loop. A worker
	// decrements it once, when it returns, so it costs nothing per packet.
	// It sits last so the packet path's fields keep their offsets.
	readers atomic.Int32
}

// Start creates the socket and begins serving.
func Start(cfg Config) (*Server, error) {
	identity, err := chaos.Format(cfg.Letter, cfg.Site, cfg.Server)
	if err != nil {
		return nil, fmt.Errorf("dnsserver: %w", err)
	}
	addr := cfg.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("dnsserver: resolve %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("dnsserver: listen: %w", err)
	}
	s := &Server{
		cfg:      cfg,
		identity: identity,
		conn:     conn,
		start:    time.Now(),
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	batch := cfg.Batch
	if batch <= 0 {
		batch = defaultBatch
	}
	if cfg.RRL != nil {
		rrlCfg := *cfg.RRL
		if rrlCfg.Shards == 0 {
			rrlCfg.Shards = workers
		}
		s.limiter, err = rrl.New(rrlCfg)
		if err != nil {
			conn.Close()
			return nil, err
		}
	}
	if err := s.buildTails(); err != nil {
		conn.Close()
		return nil, fmt.Errorf("dnsserver: precompute responses: %w", err)
	}
	for i := 0; i < workers; i++ {
		w, err := newWorker(s, batch, workerSeed(cfg.Seed, i))
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("dnsserver: worker %d: %w", i, err)
		}
		s.wg.Add(1)
		s.readers.Add(1)
		go w.run() // joined by Close via s.wg
	}
	return s, nil
}

// workerSeed derives worker i's RNG seed from the config seed via the
// splitmix64 finalizer (the same per-stream derivation internal/faults and
// internal/core use), so workers draw decorrelated but reproducible coin
// sequences.
func workerSeed(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// buildTails precomputes the serving responses by encoding them once
// through the allocating encoder and slicing off everything after the
// question.
// Each tail is position-independent by construction: record owner names are
// either the root (one literal zero byte) or compressed pointers to the
// question name, which AppendResponse always places at offset HeaderLen.
func (s *Server) buildTails() error {
	carve := func(q *dnswire.Message, fill func(*dnswire.Message) error) ([]byte, error) {
		resp := dnswire.NewResponse(q, dnswire.RCodeNoError)
		if err := fill(resp); err != nil {
			return nil, err
		}
		pkt, err := resp.Pack()
		if err != nil {
			return nil, err
		}
		nameLen, err := dnswire.EncodedNameLen(q.Questions[0].Name)
		if err != nil {
			return nil, err
		}
		return pkt[dnswire.HeaderLen+nameLen+4:], nil
	}
	var err error
	s.identityTail, err = carve(
		dnswire.NewQuery(0, "hostname.bind", dnswire.TypeTXT, dnswire.ClassCHAOS),
		func(resp *dnswire.Message) error {
			txt, err := dnswire.MakeTXT("hostname.bind", dnswire.ClassCHAOS, 0, s.identity)
			if err != nil {
				return err
			}
			resp.Answers = append(resp.Answers, txt)
			return nil
		})
	if err != nil {
		return err
	}
	s.primingTail, err = carve(
		dnswire.NewQuery(0, "", dnswire.TypeNS, dnswire.ClassINET),
		func(resp *dnswire.Message) error {
			for _, l := range chaos.Letters() {
				ns, err := dnswire.MakeNS("", 3600000, fmt.Sprintf("%c.root-servers.net", l+('a'-'A')))
				if err != nil {
					return err
				}
				resp.Answers = append(resp.Answers, ns)
			}
			return nil
		})
	if err != nil {
		return err
	}
	s.nxdomainTail, err = carve(
		dnswire.NewQuery(0, "www.336901.com", dnswire.TypeA, dnswire.ClassINET),
		func(resp *dnswire.Message) error {
			soa, err := dnswire.MakeSOA("", 86400, dnswire.SOAData{
				MName: "a.root-servers.net", RName: "nstld.verisign-grs.com",
				Serial: 2015113001, Refresh: 1800, Retry: 900, Expire: 604800, Minimum: 86400,
			})
			if err != nil {
				return err
			}
			resp.Authority = append(resp.Authority, soa)
			return nil
		})
	return err
}

// Addr returns the bound UDP address.
func (s *Server) Addr() *net.UDPAddr { return s.conn.LocalAddr().(*net.UDPAddr) }

// Identity returns the CHAOS identity string this server reports.
func (s *Server) Identity() string { return s.identity }

// Close drains the server: it stops accepting new work, wakes every
// blocked read, waits for all packet workers and TCP handlers to join
// (in-flight replies are still delivered), then releases the sockets.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return nil
	}
	s.closed.Store(true)
	tcpLn := s.tcpLn
	// Nudge the read side of every live TCP connection; handlers that
	// already read a query finish writing before they notice. Done under
	// mu so a handler cannot re-arm its idle deadline over the nudge
	// (handlers set deadlines under mu after re-checking closed).
	for c := range s.tcpConns {
		c.SetReadDeadline(aLongTimeAgo)
	}
	s.mu.Unlock()

	// Wake every UDP worker without closing the socket, so requests
	// already being handled can still write their replies. The deadline
	// stays in the past: each worker's next read returns a timeout, it
	// observes closed, and exits.
	s.conn.SetReadDeadline(aLongTimeAgo)
	if tcpLn != nil {
		tcpLn.Close()
	}
	s.wg.Wait()
	return s.conn.Close()
}

// isClosed reports whether Close has begun.
func (s *Server) isClosed() bool { return s.closed.Load() }

// Stats returns cumulative request accounting. It is lock-free and safe to
// call at any rate while the server is under load.
func (s *Server) Stats() (received, answered, droppedLoss, droppedRRL uint64) {
	return s.received.Load(), s.answered.Load(), s.droppedLoss.Load(), s.droppedRRL.Load()
}

// worker is one sharded packet loop: its own batch conn state, rx/tx
// buffers, decode scratch, and loss RNG. Nothing here is shared, so the
// per-packet path takes no locks (the batch read itself serializes on the
// socket's poller lock exactly as concurrent ReadFromUDP calls would — see
// DESIGN.md on why one shared socket beats stdlib-unreachable SO_REUSEPORT).
type worker struct {
	srv *Server
	bc  *udpbatch.Conn
	rng *rand.Rand
	rx  []udpbatch.Message
	tx  []udpbatch.Message
	q   dnswire.Message
}

func newWorker(s *Server, batch int, seed int64) (*worker, error) {
	bc, err := udpbatch.New(s.conn, batch)
	if err != nil {
		return nil, err
	}
	w := &worker{
		srv: s,
		bc:  bc,
		rng: rand.New(rand.NewSource(seed)),
		rx:  make([]udpbatch.Message, batch),
		tx:  make([]udpbatch.Message, batch),
	}
	for i := range w.rx {
		w.rx[i].Buf = make([]byte, 4096)
	}
	for i := range w.tx {
		w.tx[i].Buf = make([]byte, 0, 1024)
	}
	return w, nil
}

func (w *worker) run() {
	s := w.srv
	defer s.wg.Done()
	defer s.readers.Add(-1)
	for {
		n, err := w.bc.ReadBatch(w.rx)
		if err != nil {
			if s.isClosed() {
				return
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue // stray deadline; keep serving
			}
			return
		}
		outN := 0
		for i := 0; i < n; i++ {
			s.received.Add(1)
			if w.rng.Float64() < s.cfg.LossProb {
				s.droppedLoss.Add(1)
				continue
			}
			if !s.respond(w.rx[i].Buf[:w.rx[i].N], w.rx[i].Addr, &w.q, &w.tx[outN]) {
				continue
			}
			if s.cfg.Delay > 0 {
				// Delay inline: one blocked request delays the batch
				// behind it, which is exactly how a saturated ingress
				// behaves.
				time.Sleep(s.cfg.Delay)
			}
			w.tx[outN].Addr = w.rx[i].Addr
			outN++
		}
		s.sendBatch(w.bc, w.tx[:outN])
	}
}

// batchWriter is the send half of udpbatch.Conn.
type batchWriter interface {
	WriteBatch(ms []udpbatch.Message) (int, error)
}

// sendBatch hands tx to the kernel. WriteBatch stops at the first message
// the kernel refuses, so sendBatch counts that reply as ignored and resumes
// past it: every reply ends up counted once, as answered or ignored, and
// Stats.Backlog cannot leak upward on a send error.
func (s *Server) sendBatch(bw batchWriter, tx []udpbatch.Message) {
	for len(tx) > 0 {
		sent, err := bw.WriteBatch(tx)
		s.answered.Add(uint64(sent))
		if err == nil {
			return
		}
		s.ignored.Add(1)
		tx = tx[sent+1:]
	}
}

// respond is the UDP per-packet step: decode, RRL verdict, and the reply
// (or its truncated slip) encoded into out, with zero heap allocations once
// warm.
//
//repolint:hot
func (s *Server) respond(pkt []byte, src netip.AddrPort, q *dnswire.Message, out *udpbatch.Message) bool {
	if !s.decodeQuery(pkt, q) {
		return false
	}
	verdict := rrl.Send
	if s.limiter != nil {
		verdict = s.limiter.Check(rrlKey(src), time.Since(s.start).Milliseconds())
	}
	var buf []byte
	var err error
	switch verdict {
	case rrl.Drop:
		s.droppedRRL.Add(1)
		return false
	case rrl.Slip:
		buf, err = dnswire.AppendResponse(out.Buf[:0], q, dnswire.RCodeNoError, false, true, nil, 0, 0, 0)
	default:
		buf, err = s.reply(q, out.Buf)
	}
	if err != nil {
		s.ignored.Add(1)
		return false
	}
	out.Buf, out.N = buf, len(buf)
	return true
}

// tcpReply is the TCP per-message step: respond without the loss coin or
// RRL (a completed handshake proves the source), returning the reply
// encoded over out's storage.
//
//repolint:hot
func (s *Server) tcpReply(pkt []byte, q *dnswire.Message, out []byte) ([]byte, bool) {
	if !s.decodeQuery(pkt, q) {
		return nil, false
	}
	buf, err := s.reply(q, out)
	if err != nil {
		s.ignored.Add(1)
		return nil, false
	}
	return buf, true
}

// decodeQuery decodes pkt into q's scratch and reports whether it is a
// single-question query; anything else is counted as ignored.
//
//repolint:hot
func (s *Server) decodeQuery(pkt []byte, q *dnswire.Message) bool {
	if err := dnswire.DecodeInto(pkt, q); err != nil || q.Header.Response || len(q.Questions) != 1 {
		s.ignored.Add(1)
		return false
	}
	return true
}

// reply answers an accepted query — the one answer path behind both
// transports. It splices the precomputed tail for the query's verdict over
// out's storage: identity TXT for CHAOS hostname.bind/id.server, the
// priming NS set for the root NS query, a referral-shaped NXDOMAIN with
// the root SOA for every other IN query (we host no TLDs), REFUSED for the
// rest. It fails only for a question name the encoder rejects.
//
//repolint:hot
func (s *Server) reply(q *dnswire.Message, out []byte) ([]byte, error) {
	question := &q.Questions[0]
	switch {
	case question.Class == dnswire.ClassCHAOS && question.Type == dnswire.TypeTXT &&
		(question.Name == "hostname.bind" || question.Name == "id.server"):
		return dnswire.AppendResponse(out[:0], q, dnswire.RCodeNoError, true, false, s.identityTail, 1, 0, 0)
	case question.Class == dnswire.ClassINET && question.Name == "" && question.Type == dnswire.TypeNS:
		return dnswire.AppendResponse(out[:0], q, dnswire.RCodeNoError, true, false, s.primingTail, 13, 0, 0)
	case question.Class == dnswire.ClassINET:
		return dnswire.AppendResponse(out[:0], q, dnswire.RCodeNXDomain, false, false, s.nxdomainTail, 0, 1, 0)
	}
	return dnswire.AppendResponse(out[:0], q, dnswire.RCodeRefused, false, false, nil, 0, 0, 0)
}

// rrlKey derives the 32-bit RRL key from a source address (non-IPv4
// sources share key 0).
//
//repolint:hot
func rrlKey(src netip.AddrPort) uint32 {
	a := src.Addr()
	if a.Is4() || a.Is4In6() {
		b := a.As4()
		return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	}
	return 0
}

// ErrClosed is returned for operations on a closed server.
var ErrClosed = errors.New("dnsserver: closed")
