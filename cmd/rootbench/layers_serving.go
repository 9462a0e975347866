package main

import (
	"net/netip"

	"github.com/rootevent/anycastddos/internal/dnswire"
	"github.com/rootevent/anycastddos/internal/rrl"
)

// userspaceLayers cuts the in-process packet path into its layers by
// running each alone over the workload's own rings: the fast codec, the
// RRL verdict, and the legacy allocating codec for reference. Per-packet
// costs never come from spans — one span covers each whole loop.
func userspaceLayers(p params, r *result, tr *tracer, lane *floodLane, n int, nsPerQuery float64) {
	rg := lane.rg
	pm, sm := len(rg.pkts)-1, len(rg.srcs)-1
	// Like the path itself, each loop is repeated and the fastest kept.
	perPacket := func(name string, n int, body func(i int)) float64 {
		var ns []float64
		for rep := 0; rep < 5; rep++ {
			s, _ := tr.timed(name, func() error {
				for i := rep * n; i < (rep+1)*n; i++ {
					body(i)
				}
				return nil
			})
			ns = append(ns, s*1e9/float64(n))
		}
		return fastest(ns)
	}

	var q dnswire.Message
	decode := perPacket("dnswire.decode_into", n, func(i int) { _ = dnswire.DecodeInto(rg.pkts[i&pm], &q) })
	r.set("dnswire.decode_into_ns", decode, "ns")

	// The server's NXDOMAIN tail is not exported; take it from a real
	// reply to a source RRL has not seen: everything after the question.
	fresh := netip.AddrPortFrom(netip.AddrFrom4([4]byte{192, 0, 2, 1}), 5353)
	tail := []byte(nil)
	if reply, ok := lane.in.Inject(rg.pkts[0], fresh); ok && len(reply) > len(rg.pkts[0]) {
		tail = append(tail, reply[len(rg.pkts[0]):]...)
	}
	out := make([]byte, 0, dnswire.MaxUDPPayload)
	both := perPacket("dnswire.decode_and_append", n, func(i int) {
		if dnswire.DecodeInto(rg.pkts[i&pm], &q) == nil {
			out, _ = dnswire.AppendResponse(out[:0], &q, dnswire.RCodeNXDomain, false, false, tail, 0, 1, 0)
		}
	})
	r.set("dnswire.append_response_ns", both-decode, "ns")

	legacyN := max(n/10, 1)
	var msgs []*dnswire.Message
	r.set("dnswire.decode_legacy_ns", perPacket("dnswire.decode_legacy", legacyN, func(i int) {
		if m, err := dnswire.Decode(rg.pkts[i&pm]); err == nil && len(msgs) < 64 {
			msgs = append(msgs, m)
		}
	}), "ns")
	if len(msgs) > 0 {
		r.set("dnswire.encode_legacy_ns", perPacket("dnswire.encode_legacy", legacyN, func(i int) {
			out, _ = dnswire.NewResponse(msgs[i%len(msgs)], dnswire.RCodeNXDomain).Encode(out[:0])
		}), "ns")
	}

	// RRL alone, same sources, on a clock that advances as fast as the
	// measured path did so buckets refill and idle out at the same rate.
	lim := rrl.MustNew(rrl.DefaultConfig())
	before := readMem()
	check := perPacket("rrl.check", n, func(i int) {
		a := rg.srcs[i&sm].Addr().As4()
		key := uint32(a[0])<<24 | uint32(a[1])<<16 | uint32(a[2])<<8 | uint32(a[3])
		lim.Check(key, int64(float64(i)*nsPerQuery/1e6))
	})
	r.set("rrl.check_ns", check, "ns")
	r.set("rrl.allocs_per_check", float64(memSince(before).Mallocs)/float64(5*n), "count")
	r.set("rrl.entries", float64(lim.Entries()), "count")
	r.set("dnsserver.self_ns", nsPerQuery-decode-check-(both-decode), "ns")
}
