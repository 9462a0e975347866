package dnsserver

import (
	"math/rand"
	"net/netip"
	"time"

	"github.com/rootevent/anycastddos/internal/dnswire"
	"github.com/rootevent/anycastddos/internal/udpbatch"
)

// Injector drives the server's per-packet UDP path in process, bypassing
// the kernel. Capacity benchmarking uses it (rootbench's flood_hot lane, the
// FloodPath benchmark) to measure the userspace packet path on its own:
// over loopback sockets the kernel's per-datagram cost dominates long
// before this path saturates. Each Injector owns its decode scratch, reply
// buffer, and loss-coin RNG — use one per goroutine.
type Injector struct {
	s   *Server
	rng *rand.Rand
	q   dnswire.Message
	out udpbatch.Message
}

// injectorStream offsets injector RNG streams far away from the reader
// workers' (worker i draws from workerSeed(seed, i), i < Workers).
const injectorStream = 1 << 20

// NewInjector returns an in-process packet lane. Its loss-coin stream is
// derived from the config seed like a reader worker's, so injected traffic
// obeys the same seeded loss model.
func (s *Server) NewInjector() *Injector {
	idx := int(s.injectors.Add(1))
	return &Injector{s: s, rng: rand.New(rand.NewSource(workerSeed(s.cfg.Seed, injectorStream+idx)))}
}

// Inject runs one packet through the full per-packet path — stats, loss
// coin, RRL verdict, decode, encode — exactly as a reader worker would,
// returning the wire reply and whether one would have been sent. The reply
// aliases the Injector's buffer and is valid until the next Inject.
func (in *Injector) Inject(pkt []byte, src netip.AddrPort) ([]byte, bool) {
	s := in.s
	s.received.Add(1)
	if in.rng.Float64() < s.cfg.LossProb {
		s.droppedLoss.Add(1)
		return nil, false
	}
	if !s.respond(pkt, src, &in.q, &in.out) {
		return nil, false
	}
	if s.cfg.Delay > 0 {
		time.Sleep(s.cfg.Delay)
	}
	s.answered.Add(1)
	return in.out.Buf[:in.out.N], true
}
