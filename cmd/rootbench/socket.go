package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/rootevent/anycastddos/internal/dnsserver"
	"github.com/rootevent/anycastddos/internal/dnswire"
	"github.com/rootevent/anycastddos/internal/rrl"
	"github.com/rootevent/anycastddos/internal/stats"
	"github.com/rootevent/anycastddos/internal/udpbatch"
)

const floodBatch = 32

// startSite starts a one-worker server on loopback with TCP up, and refuses
// anything but a loopback address: the generators below only ever target
// it. The port is drawn below the kernel's ephemeral range: StartTCP binds
// the UDP port's number, and after a run of dial-per-probe TCP probes an
// ephemeral number is likely to sit in TIME_WAIT and refuse the bind.
func startSite(rng *rand.Rand, limit bool) (*dnsserver.Server, error) {
	cfg := dnsserver.Config{Letter: 'K', Site: "LHR", Server: 1, Workers: 1}
	if limit {
		rcfg := rrl.DefaultConfig()
		cfg.RRL = &rcfg
	}
	var err error
	for try := 0; try < 32; try++ {
		cfg.Addr = fmt.Sprintf("127.0.0.1:%d", 20000+rng.Intn(10000))
		var srv *dnsserver.Server
		if srv, err = dnsserver.Start(cfg); err != nil {
			continue
		}
		if err = srv.StartTCP(); err != nil {
			srv.Close()
			continue
		}
		if !srv.Addr().IP.IsLoopback() {
			srv.Close()
			return nil, fmt.Errorf("refusing to run against non-loopback address %s", srv.Addr())
		}
		return srv, nil
	}
	return nil, fmt.Errorf("no free loopback port for UDP and TCP: %w", err)
}

// generator floods a site from one unconnected socket through batched
// sends. Paced, it is an open loop: batch n is due at start + n/rate
// whatever the server does, the clock is read once per batch, and the
// worst lateness is kept.
type generator struct {
	conn   *net.UDPConn
	bc     *udpbatch.Conn
	ms     []udpbatch.Message
	sent   atomic.Uint64
	lateNs atomic.Int64
	stop   atomic.Bool
	done   chan struct{}
}

func newGenerator(dst *net.UDPAddr) (*generator, error) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	bc, err := udpbatch.New(conn, floodBatch)
	if err != nil {
		conn.Close()
		return nil, err
	}
	pkt, err := dnswire.NewQuery(7, attackName, dnswire.TypeA, dnswire.ClassINET).Pack()
	if err != nil {
		conn.Close()
		return nil, err
	}
	g := &generator{conn: conn, bc: bc, ms: make([]udpbatch.Message, floodBatch)}
	for i := range g.ms {
		g.ms[i] = udpbatch.Message{Buf: pkt, N: len(pkt), Addr: dst.AddrPort()}
	}
	return g, nil
}

// run sends until halt; rate 0 is unpaced.
func (g *generator) run(rate float64) {
	g.done = make(chan struct{})
	g.stop.Store(false)
	go func() {
		defer close(g.done)
		interval := time.Duration(0)
		if rate > 0 {
			interval = time.Duration(floodBatch / rate * float64(time.Second))
		}
		start := time.Now()
		for n := 0; !g.stop.Load(); n++ {
			if interval > 0 {
				if ahead := time.Until(start.Add(time.Duration(n) * interval)); ahead > 0 {
					time.Sleep(ahead)
				} else if late := -ahead.Nanoseconds(); late > g.lateNs.Load() {
					g.lateNs.Store(late)
				}
			}
			w, err := g.bc.WriteBatch(g.ms)
			g.sent.Add(uint64(w))
			if err != nil {
				return
			}
		}
	}()
}

// halt stops the sending goroutine and waits for it.
func (g *generator) halt() {
	g.stop.Store(true)
	<-g.done
}

func (g *generator) close() error { return g.conn.Close() }

// legit is the well-behaved client beside the flood: one identity probe
// every 50 ms with a 200 ms timeout, over TCP when UDP is lost or
// truncated.
type legit struct {
	stop                chan struct{}
	wg                  sync.WaitGroup
	sent, viaTCP, lost  int
	mismatched          int
	latencyMs           []float64
	firstMismatch, want string
}

func startLegit(s *dnsserver.Server, seed int64, every time.Duration) *legit {
	l := &legit{stop: make(chan struct{}), want: s.Identity()}
	prober := dnsserver.NewProber(seed)
	prober.Timeout = 200 * time.Millisecond
	prober.FallbackTCP = true
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-l.stop:
				return
			case <-tick.C:
			}
			start := time.Now()
			res, err := prober.Probe(s.Addr(), 'K')
			if err != nil {
				res, err = prober.ProbeTCP(s.Addr(), 'K')
			}
			l.sent++
			switch {
			case err != nil:
				l.lost++
				continue
			case !res.Matched || res.RawTXT != l.want:
				l.mismatched++
				l.firstMismatch = res.RawTXT
			case res.ViaTCP:
				l.viaTCP++
			}
			l.latencyMs = append(l.latencyMs, time.Since(start).Seconds()*1e3)
		}
	}()
	return l
}

func (l *legit) halt() {
	close(l.stop)
	l.wg.Wait()
}

// workloadFloodSocket is the kernel-bound serving path: a fixed
// 100 000 q/s open-loop flood over loopback UDP into a one-worker server
// with RRL, a legitimate client probing beside it. One operation is one
// query the server received; the number to read is CPU per query at the
// fixed rate, because saturation throughput swings too much to gate.
func workloadFloodSocket(p params) (*result, error) {
	rate, window, warm, every := 100_000.0, 500*time.Millisecond, time.Second, 50*time.Millisecond
	if p.Smoke {
		rate, window, warm, every = 20_000, 100*time.Millisecond, 50*time.Millisecond, 10*time.Millisecond
	}
	r, tr, setup := newResult(), newTracer(p.Trace), &setupTimer{}
	r.State = "loopback"
	var s *dnsserver.Server
	var g *generator
	rng := rand.New(rand.NewSource(p.Seed))
	if err := setup.repeat(func() (err error) {
		if s, err = startSite(rng, true); err != nil {
			return err
		}
		g, err = newGenerator(s.Addr())
		return err
	}, func() error { return errors.Join(g.close(), s.Close()) }); err != nil {
		return nil, err
	}
	defer s.Close()
	defer g.close()

	client := startLegit(s, p.Seed, every)
	g.run(rate)
	time.Sleep(warm) // discarded warm-up
	var userUs, sysUs []float64
	sent0, first := g.sent.Load(), s.Snapshot()
	st, err := runUnits(p, tr, false, func(u *unit) (int64, error) {
		id := u.Tr.begin(u.Span, "dnsserver.paced_window")
		before := s.Snapshot()
		usr0, sys0 := cpuTimes(syscall.RUSAGE_SELF)
		u.start()
		time.Sleep(window)
		u.stop()
		usr1, sys1 := cpuTimes(syscall.RUSAGE_SELF)
		received := float64(s.Snapshot().Sub(before).Received)
		u.Tr.end(id)
		if received == 0 {
			return 0, errors.New("the server received nothing in a window")
		}
		userUs = append(userUs, (usr1-usr0)*1e6/received)
		sysUs = append(sysUs, (sys1-sys0)*1e6/received)
		return int64(received), nil
	})
	g.halt()
	client.halt()
	if err != nil {
		return nil, err
	}
	sent, total := float64(g.sent.Load()-sent0), s.Snapshot().Sub(first)

	r.Attempted, r.Failed = int64(client.sent), int64(client.lost)
	r.verify("flood_socket.legit_client_answered", client.sent > 0 && client.lost == 0,
		"%d of %d legitimate probes went unanswered over both UDP and TCP", client.lost, client.sent)
	r.verify("flood_socket.identity_matches", client.mismatched == 0,
		"%d probes saw identity %q, want %q", client.mismatched, client.firstMismatch, client.want)
	if !p.Trace {
		st.report(r, false)
		setup.report(r)
		return r, nil
	}
	st.report(r, true)
	r.setMedian("dnsserver.user_cpu_us_per_query", userUs, "us")
	r.setMedian("dnsserver.sys_cpu_us_per_query", sysUs, "us")
	r.set("dnsserver.kernel_drop_frac", max(1-float64(total.Received)/sent, 0), "frac")
	r.set("dnsserver.answered_frac", float64(total.Answered)/float64(total.Received), "frac")
	r.set("dnsserver.rrl_dropped_frac", float64(total.DroppedRRL)/float64(total.Received), "frac")
	r.set("gen.late_ms_max", float64(g.lateNs.Load())/1e6, "ms")
	r.set("prober.legit_p50_ms", stats.Quantile(client.latencyMs, 0.5), "ms")
	r.Samples["prober.legit_p50_ms"] = len(client.latencyMs)
	r.set("prober.legit_tcp_fallback_frac", float64(client.viaTCP)/float64(max(client.sent, 1)), "frac")

	// Saturation: the same lane unpaced. Layer metrics only.
	satFor := 8 * window
	before, sent0 := s.Snapshot(), g.sent.Load()
	cpu0 := cpuSeconds(false)
	start := time.Now()
	id := tr.begin(0, "dnsserver.saturation")
	g.run(0)
	time.Sleep(satFor)
	g.halt()
	tr.end(id)
	secs := time.Since(start).Seconds()
	got := float64(s.Snapshot().Sub(before).Received)
	r.set("dnsserver.saturation_qps", got/secs, "1/s")
	r.set("dnsserver.saturation_drop_frac", max(1-got/float64(g.sent.Load()-sent0), 0), "frac")
	r.set("dnsserver.saturation_cpu_us_per_query", (cpuSeconds(false)-cpu0)*1e6/max(got, 1), "us")
	if err := batchLayers(p, r, tr); err != nil {
		return nil, err
	}
	r.LayerSelfS = layerSelfSeconds(tr.spans)
	return r, tr.write(p.Out, "flood_socket")
}

// batchLayers times udpbatch alone on a loopback socket pair: rounds of
// 128 datagrams written, then read, at batch 32 and — to show what
// batching amortises — written at batch 1.
func batchLayers(p params, r *result, tr *tracer) error {
	rounds := 400
	if p.Smoke {
		rounds = 10
	}
	const perRound = 128
	listen := func() (*net.UDPConn, error) { return net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}) }
	sink, err := listen()
	if err != nil {
		return err
	}
	defer sink.Close()
	src, err := listen()
	if err != nil {
		return err
	}
	defer src.Close()
	pkt, err := dnswire.NewQuery(7, attackName, dnswire.TypeA, dnswire.ClassINET).Pack()
	if err != nil {
		return err
	}
	dst := sink.LocalAddr().(*net.UDPAddr).AddrPort()
	for _, batch := range []int{floodBatch, 1} {
		wr, err := udpbatch.New(src, batch)
		if err != nil {
			return err
		}
		rd, err := udpbatch.New(sink, floodBatch)
		if err != nil {
			return err
		}
		out, in := make([]udpbatch.Message, batch), make([]udpbatch.Message, floodBatch)
		for i := range out {
			out[i] = udpbatch.Message{Buf: pkt, N: len(pkt), Addr: dst}
		}
		for i := range in {
			in[i].Buf = make([]byte, dnswire.MaxUDPPayload)
		}
		var writeNs, readNs int64
		var moved int
		id := tr.begin(0, fmt.Sprintf("udpbatch.rounds_b%d", batch))
		for round := 0; round < rounds; round++ {
			start := time.Now()
			for n := 0; n < perRound; {
				w, err := wr.WriteBatch(out)
				if err != nil {
					return err
				}
				n += w
			}
			mid := time.Now()
			if err := sink.SetReadDeadline(mid.Add(time.Second)); err != nil {
				return err
			}
			for n := 0; n < perRound; {
				got, err := rd.ReadBatch(in)
				if err != nil {
					return fmt.Errorf("udpbatch read-back: %w", err)
				}
				n += got
			}
			writeNs += mid.Sub(start).Nanoseconds()
			readNs += time.Since(mid).Nanoseconds()
			moved += perRound
		}
		tr.end(id)
		if batch == 1 {
			r.set("udpbatch.write_us_per_dgram_b1", float64(writeNs)/1e3/float64(moved), "us")
			continue
		}
		r.set("udpbatch.write_us_per_dgram", float64(writeNs)/1e3/float64(moved), "us")
		r.set("udpbatch.read_us_per_dgram", float64(readNs)/1e3/float64(moved), "us")
	}
	return nil
}

// workloadProbeClosed is the request/response path of a legitimate client,
// a health check or a catchment mapper: one client, closed loop, against an
// idle server — 2000 UDP probes then 50 TCP probes per unit. One operation
// is one probe. TCP probes are kept few because each leaves its client
// port in TIME_WAIT for a minute, and a run must not exhaust them.
func workloadProbeClosed(p params) (*result, error) {
	nUDP, nTCP := 2000, 50
	if p.Smoke {
		nUDP, nTCP = 60, 10
	}
	r, tr, setup := newResult(), newTracer(p.Trace), &setupTimer{}
	r.State = "loopback"
	var s *dnsserver.Server
	var prober *dnsserver.Prober
	rng := rand.New(rand.NewSource(p.Seed))
	if err := setup.repeat(func() (err error) {
		s, err = startSite(rng, false)
		prober = dnsserver.NewProber(p.Seed)
		return err
	}, func() error { return s.Close() }); err != nil {
		return nil, err
	}
	defer s.Close()
	addr, want := s.Addr(), s.Identity()

	var udpUs, tcpUs []float64
	mismatched := 0
	probe := func(n int, fn func(*net.UDPAddr, byte) (dnsserver.ProbeResult, error), rtts *[]float64) {
		for i := 0; i < n; i++ {
			res, err := fn(addr, 'K')
			r.Attempted++
			switch {
			case err != nil:
				r.Failed++
			case !res.Matched || res.RawTXT != want:
				mismatched++
			case p.Trace: // latency samples are a per-layer metric
				*rtts = append(*rtts, float64(res.RTT.Nanoseconds())/1e3)
			}
		}
	}
	probe(nUDP/10, prober.Probe, &udpUs) // discarded warm-up
	probe(nTCP/10, prober.ProbeTCP, &tcpUs)
	r.Attempted, r.Failed, mismatched, udpUs, tcpUs = 0, 0, 0, udpUs[:0], tcpUs[:0]

	st, err := runUnits(p, tr, false, func(u *unit) (int64, error) {
		u.start()
		_ = u.Tr.do(u.Span, "prober.udp", func() error { probe(nUDP, prober.Probe, &udpUs); return nil })
		_ = u.Tr.do(u.Span, "prober.tcp", func() error { probe(nTCP, prober.ProbeTCP, &tcpUs); return nil })
		u.stop()
		return int64(nUDP + nTCP), nil
	})
	if err != nil {
		return nil, err
	}
	r.verify("probe_closed.no_probe_errors", r.Failed == 0, "%d of %d probes errored", r.Failed, r.Attempted)
	r.verify("probe_closed.identity_matches", mismatched == 0, "%d probes did not see identity %q", mismatched, want)
	if !p.Trace {
		st.report(r, false)
		setup.report(r)
		return r, nil
	}
	st.report(r, true)
	r.set("prober.udp_p50_us", stats.Quantile(udpUs, 0.50), "us")
	r.set("prober.udp_p99_us", stats.Quantile(udpUs, 0.99), "us")
	r.set("prober.tcp_p50_us", stats.Quantile(tcpUs, 0.50), "us")
	r.set("prober.tcp_p99_us", stats.Quantile(tcpUs, 0.99), "us")
	r.Samples["prober.udp_p99_us"], r.Samples["prober.tcp_p99_us"] = len(udpUs), len(tcpUs)
	// Allocations per probe, client and server together (one process).
	scratch := make([]float64, 0, nUDP+nTCP)
	before := readMem()
	probe(nUDP, prober.Probe, &scratch)
	r.set("prober.allocs_per_udp_probe", float64(memSince(before).Mallocs)/float64(nUDP), "count")
	before = readMem()
	probe(nTCP, prober.ProbeTCP, &scratch)
	r.set("prober.allocs_per_tcp_probe", float64(memSince(before).Mallocs)/float64(nTCP), "count")
	r.LayerSelfS = layerSelfSeconds(tr.spans)
	return r, tr.write(p.Out, "probe_closed")
}
