package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net/netip"

	"github.com/rootevent/anycastddos/internal/attack"
	"github.com/rootevent/anycastddos/internal/dnsserver"
	"github.com/rootevent/anycastddos/internal/dnswire"
	"github.com/rootevent/anycastddos/internal/rrl"
)

// attackName is the fixed query name of the Nov 30 event (§2.3).
const attackName = "www.336901.com"

// rings is a flood's generated input: wire queries and the sources they
// claim to come from, both power-of-two rings walked in step. Packet i is
// pkts[i&len-1] from srcs[i&len-1]; ids holds each packet's DNS ID so a
// sampled reply can be matched to its query.
type rings struct {
	pkts [][]byte
	ids  []uint16
	srcs []netip.AddrPort
}

// hotRings is floodbench -inproc's mix: the fixed name from four sources in
// one /24, so every packet lands in one hot RRL bucket.
func hotRings(seed int64) (*rings, error) {
	rng := rand.New(rand.NewSource(seed))
	rg := &rings{srcs: make([]netip.AddrPort, 4)}
	for i := range rg.srcs {
		rg.srcs[i] = netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 0, byte(i + 1)}), 5353)
	}
	return rg, rg.fillPackets(rng, 256, nil)
}

// spoofedRings is the paper's source structure (Table 3): sources drawn
// from attack.DefaultSourceMix — 68% from 200 heavy hitters, the rest
// uniformly random spoofed addresses — and one query in eight for a random
// label out of 8192, more than the decoder's 1024-entry name cache holds.
func spoofedRings(seed int64, nSrcs int) (*rings, error) {
	rng := rand.New(rand.NewSource(seed))
	rg := &rings{srcs: make([]netip.AddrPort, nSrcs)}
	for i := range rg.srcs {
		a := attack.DefaultSourceMix.SampleSource(rng)
		rg.srcs[i] = netip.AddrPortFrom(netip.AddrFrom4([4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)}), uint16(1024+rng.Intn(64000)))
	}
	labels := make([]string, 8192)
	for i := range labels {
		labels[i] = fmt.Sprintf("%08x.336901.com", rng.Uint32())
	}
	return rg, rg.fillPackets(rng, 1<<16, labels)
}

// fillPackets packs n queries with seeded IDs: the attack name, or — one in
// eight when labels is set — a name from labels.
func (rg *rings) fillPackets(rng *rand.Rand, n int, labels []string) error {
	rg.pkts, rg.ids = make([][]byte, n), make([]uint16, n)
	for i := range rg.pkts {
		name := attackName
		if labels != nil && rng.Intn(8) == 0 {
			name = labels[rng.Intn(len(labels))]
		}
		rg.ids[i] = uint16(rng.Intn(1 << 16))
		pkt, err := dnswire.NewQuery(rg.ids[i], name, dnswire.TypeA, dnswire.ClassINET).Pack()
		if err != nil {
			return err
		}
		rg.pkts[i] = pkt
	}
	return nil
}

// digest fingerprints the generated input.
func (rg *rings) digest() string {
	h := sha256.New()
	for _, p := range rg.pkts {
		h.Write(p)
	}
	var b [6]byte
	for _, s := range rg.srcs {
		a := s.Addr().As4()
		copy(b[:4], a[:])
		binary.BigEndian.PutUint16(b[4:], s.Port())
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sampleEvery is the reply validation stride: one reply per 1024 packets is
// copied out of the injector's buffer during a window and decoded after it.
const sampleEvery = 1024

// sampled is one reply kept for validation.
type sampled struct {
	pkt int // packet ring index of the query
	n   int // reply length in buf
}

// floodLane drives one Injector over the rings, a window at a time.
type floodLane struct {
	rg      *rings
	srv     *dnsserver.Server
	in      *dnsserver.Injector
	next    int // packets injected so far; the rings resume where they stopped
	samples []sampled
	bufs    [][]byte
	corrupt bool // tests: damage sampled replies to prove the check fails closed
}

func startFlood(rg *rings, window int) (*floodLane, error) {
	rcfg := rrl.DefaultConfig()
	srv, err := dnsserver.Start(dnsserver.Config{Letter: 'K', Site: "LHR", Server: 1, RRL: &rcfg})
	if err != nil {
		return nil, err
	}
	l := &floodLane{rg: rg, srv: srv, in: srv.NewInjector()}
	l.bufs = make([][]byte, window/sampleEvery+1)
	for i := range l.bufs {
		l.bufs[i] = make([]byte, dnswire.MaxUDPPayload)
	}
	l.samples = make([]sampled, 0, len(l.bufs))
	return l, nil
}

func (l *floodLane) close() error { return l.srv.Close() }

// window injects n packets. It is the timed loop: nothing in it allocates,
// reads a clock or records a span.
func (l *floodLane) window(n int) {
	pm, sm := len(l.rg.pkts)-1, len(l.rg.srcs)-1
	l.samples = l.samples[:0]
	// The sample is the first reply at or after each stride boundary: RRL
	// answers the hot bucket in a fixed rhythm, and a fixed index could
	// fall on a suppressed packet every time.
	due := false
	for i, end := l.next, l.next+n; i < end; i++ {
		reply, ok := l.in.Inject(l.rg.pkts[i&pm], l.rg.srcs[i&sm])
		due = due || i%sampleEvery == 0
		if due && ok {
			due = false
			k := len(l.samples)
			l.samples = append(l.samples, sampled{pkt: i & pm, n: copy(l.bufs[k], reply)})
		}
	}
	l.next += n
}

// validate decodes the window's sampled replies with the allocating codec
// and checks each is a response carrying its query's ID. It returns how
// many failed.
func (l *floodLane) validate() (checked, bad int64) {
	for k, s := range l.samples {
		buf := l.bufs[k][:s.n]
		if l.corrupt {
			buf[0] ^= 0xFF
		}
		m, err := dnswire.Decode(buf)
		if err != nil || !m.Header.Response || m.Header.ID != l.rg.ids[s.pkt] {
			bad++
		}
		checked++
	}
	return checked, bad
}

// workloadFlood is the in-process flood over generated rings: the
// smallest-packet userspace path (decode, RRL verdict, encode) with no
// kernel in the way. One operation is one injected packet.
func workloadFlood(name string, window int, gen func(p params) (*rings, error), p params) (*result, error) {
	if p.Smoke {
		window /= 50
	}
	r, tr, setup := newResult(), newTracer(p.Trace), &setupTimer{}
	r.State = "in-process"
	var rg *rings
	var lane *floodLane
	if err := setup.repeat(func() (err error) {
		if rg, err = gen(p); err != nil {
			return err
		}
		lane, err = startFlood(rg, window)
		return err
	}, func() error { return lane.close() }); err != nil {
		return nil, err
	}
	defer lane.close()
	r.Fingerprints["rings_sha256"] = rg.digest()

	lane.window(window) // discarded warm-up: fills the name cache and RRL table
	before := lane.srv.Snapshot()
	injected := int64(0)
	st, err := runUnits(p, tr, false, func(u *unit) (int64, error) {
		id := u.Tr.begin(u.Span, "dnsserver.window")
		u.start()
		lane.window(window)
		u.stop()
		u.Tr.end(id)
		injected += int64(window)
		checked, bad := lane.validate()
		r.Attempted += int64(window)
		r.Failed += bad
		r.verify(name+".replies_valid", bad == 0 && checked > 0, "%d of %d sampled replies failed validation", bad, checked)
		return int64(window), nil
	})
	if err != nil {
		return nil, err
	}
	d := lane.srv.Snapshot().Sub(before)
	r.verify(name+".received_equals_injected", int64(d.Received) == injected, "server received %d of %d injected", d.Received, injected)
	r.verify(name+".every_packet_accounted", d.Answered+d.DroppedRRL+d.DroppedLoss == d.Received,
		"answered %d + rrl %d + loss %d != received %d", d.Answered, d.DroppedRRL, d.DroppedLoss, d.Received)
	if !p.Trace {
		st.report(r, false)
		setup.report(r)
		return r, nil
	}
	st.report(r, true)
	nsPerQuery := fastest(st.wallUs) * 1e3
	r.set("dnsserver.answered_frac", float64(d.Answered)/float64(d.Received), "frac")
	r.set("dnsserver.rrl_dropped_frac", float64(d.DroppedRRL)/float64(d.Received), "frac")
	r.set("dnsserver.window_spread", spread(st.wallUs), "frac")
	userspaceLayers(p, r, tr, lane, window, nsPerQuery)
	if name == "flood_hot" {
		// Sum check: the isolated decode, RRL and encode loops must not add
		// up to more than the path they were cut from, within 5%.
		self := r.Metrics["dnsserver.self_ns"].Value
		r.verify("flood_hot.layers_sum_to_path", self >= -sumCheckLimit(p)*nsPerQuery,
			"decode+check+append exceed ns per query by %.1f%%, limit 5%%", -self/nsPerQuery*100)
	}
	r.LayerSelfS = layerSelfSeconds(tr.spans)
	return r, tr.write(p.Out, name)
}

func workloadFloodHot(p params) (*result, error) {
	return workloadFlood("flood_hot", 1_000_000, func(p params) (*rings, error) { return hotRings(p.Seed) }, p)
}

func workloadFloodSpoofed(p params) (*result, error) {
	return workloadFlood("flood_spoofed", 500_000, func(p params) (*rings, error) {
		n := 1 << 20
		if p.Smoke {
			n = 1 << 14
		}
		return spoofedRings(p.Seed, n)
	}, p)
}
