package dnsserver

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rootevent/anycastddos/internal/dnswire"
)

// fanoutWorker is one lane of a parallel catchment sweep. It owns a single
// unconnected UDP socket reused across every target it probes, one packed
// request whose ID bytes are re-stamped per probe, one reply buffer, and
// one decode scratch Message — so a wide sweep costs W sockets total and
// the per-probe hot path allocates nothing until a reply actually parses.
// Its prober is a lane-local copy of the sweep's: the same knobs and retry
// loop, but its own seeded stream, so lanes draw IDs and jitter without
// contending on the shared prober's mutex.
type fanoutWorker struct {
	p    *Prober
	conn *net.UDPConn
	pkt  []byte // packed hostname.bind query; ID stamped in place
	buf  [4096]byte
	q    dnswire.Message
}

func newFanoutWorker(p *Prober, seed int64) (*fanoutWorker, error) {
	conn, err := net.ListenUDP("udp", nil)
	if err != nil {
		return nil, fmt.Errorf("dnsserver: fanout socket: %w", err)
	}
	pkt, err := probeQuery(0)
	if err != nil {
		conn.Close()
		return nil, err
	}
	lane := &Prober{
		Timeout:    p.Timeout,
		Retries:    p.Retries,
		Backoff:    p.Backoff,
		MaxBackoff: p.MaxBackoff,
		rng:        rand.New(rand.NewSource(seed)),
	}
	return &fanoutWorker{p: lane, conn: conn, pkt: pkt}, nil
}

// probe runs the shared retry loop for one target over the worker's reused
// socket — ProbeContext minus the TCP fallback (a catchment sweep only
// tallies sites, and a slipped TC reply carries no identity).
func (w *fanoutWorker) probe(ctx context.Context, addr netip.AddrPort, letter byte) (ProbeResult, error) {
	return w.p.retry(ctx, func() (ProbeResult, error) { return w.probeOnce(ctx, addr, letter) })
}

func (w *fanoutWorker) probeOnce(ctx context.Context, addr netip.AddrPort, letter byte) (ProbeResult, error) {
	if err := ctx.Err(); err != nil {
		return ProbeResult{}, fmt.Errorf("dnsserver: probe canceled: %w", err)
	}
	id := w.p.queryID()
	w.pkt[0], w.pkt[1] = byte(id>>8), byte(id)
	start := time.Now()
	if _, err := w.conn.WriteToUDPAddrPort(w.pkt, addr); err != nil {
		return ProbeResult{}, fmt.Errorf("dnsserver: send: %w", err)
	}
	if err := w.conn.SetReadDeadline(w.p.attemptDeadline(ctx, start)); err != nil {
		return ProbeResult{}, err
	}
	for {
		n, from, err := w.conn.ReadFromUDPAddrPort(w.buf[:])
		if err != nil {
			return ProbeResult{}, finishErr(ctx, err)
		}
		rtt := time.Since(start)
		// The socket is unconnected and shared across targets: discard
		// datagrams from anyone but the target currently being probed.
		// Unmap before comparing — a dual-stack socket reports IPv4 peers
		// as 4-in-6 mapped addresses.
		if from.Addr().Unmap() != addr.Addr().Unmap() || from.Port() != addr.Port() {
			continue
		}
		if !isReply(w.buf[:n], &w.q, id) {
			continue // not our reply; keep reading until deadline
		}
		return parseReply(&w.q, letter, rtt)
	}
}

// MapCatchmentParallel is MapCatchment fanned over a pool of workers: the
// batched fan-out mode for wide sweeps (hundreds of VPs against many
// sites). Targets are handed out work-stealing style so one slow or dead
// server delays only the lane probing it. Verdict semantics match the
// sequential sweep: the returned tallies count Matched identities per site,
// cancellation returns partial tallies with a progress-naming error, and a
// sweep that matched nothing surfaces the first probe error.
//
// Worker RNG streams (query IDs, backoff jitter) are drawn from the
// prober's seeded stream at startup, so a seeded prober remains
// reproducible per (workers, targets) shape.
func (p *Prober) MapCatchmentParallel(ctx context.Context, addrs []*net.UDPAddr, letter byte, workers int) (map[string]int, error) {
	if len(addrs) == 0 {
		return map[string]int{}, nil
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(addrs) {
		workers = len(addrs)
	}
	targets := make([]netip.AddrPort, len(addrs))
	for i, a := range addrs {
		targets[i] = a.AddrPort()
	}
	// Per-worker seeds come off the prober's stream once, up front.
	seeds := make([]int64, workers)
	p.mu.Lock()
	for i := range seeds {
		seeds[i] = p.rng.Int63()
	}
	p.mu.Unlock()

	ws := make([]*fanoutWorker, workers)
	for i := range ws {
		w, err := newFanoutWorker(p, seeds[i])
		if err != nil {
			for _, prev := range ws[:i] {
				prev.conn.Close()
			}
			return nil, err
		}
		ws[i] = w
		// Cancellation must wake a read blocked inside an attempt window.
		defer context.AfterFunc(ctx, func() { w.conn.SetReadDeadline(aLongTimeAgo) })()
		defer w.conn.Close()
	}

	var (
		next     atomic.Int64 // work-stealing cursor over targets
		mu       sync.Mutex
		sites    = make(map[string]int)
		done     int
		firstErr error
	)
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *fanoutWorker) {
			defer wg.Done()
			local := make(map[string]int)
			var localDone int
			var localErr error
			for {
				i := int(next.Add(1)) - 1
				if i >= len(targets) || ctx.Err() != nil {
					break
				}
				res, err := w.probe(ctx, targets[i], letter)
				localDone++
				if err != nil {
					if localErr == nil {
						localErr = err
					}
					continue
				}
				if res.Matched {
					local[res.Identity.SiteName()]++
				}
			}
			mu.Lock()
			for site, n := range local {
				sites[site] += n
			}
			done += localDone
			if firstErr == nil {
				firstErr = localErr
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()

	if cerr := ctx.Err(); cerr != nil {
		return sites, fmt.Errorf("dnsserver: catchment mapping stopped after %d/%d probes: %w",
			done, len(addrs), cerr)
	}
	if len(sites) == 0 && firstErr != nil {
		return nil, firstErr
	}
	return sites, nil
}
