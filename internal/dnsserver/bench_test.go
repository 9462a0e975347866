package dnsserver

import (
	"net"
	"net/netip"
	"testing"
	"time"

	"github.com/rootevent/anycastddos/internal/dnswire"
	"github.com/rootevent/anycastddos/internal/udpbatch"
)

// floodQuery is the fixed-name flood workload from the Nov 2015 event: an
// A query for a nonexistent .com name, answered NXDOMAIN with an SOA.
func floodQuery(b *testing.B) []byte {
	b.Helper()
	pkt, err := dnswire.NewQuery(99, "www.336901.com", dnswire.TypeA, dnswire.ClassINET).Pack()
	if err != nil {
		b.Fatal(err)
	}
	return pkt
}

// BenchmarkFloodPath measures the per-packet cost of the UDP serving path
// (DecodeInto + RRL + tail splice) on the flood workload. This is the
// per-core number: 1 Mq/s per core corresponds to 1000 ns/op.
// TestRespondZeroAllocs holds the same path at 0 allocs/op; rootbench's
// flood_hot workload tracks its cost end to end.
func BenchmarkFloodPath(b *testing.B) {
	s, err := Start(Config{Letter: 'K', Site: "AMS", Server: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	pkt := floodQuery(b)
	srcAP := netip.MustParseAddrPort("10.0.0.1:5353")

	b.Run("fast", func(b *testing.B) {
		var q dnswire.Message
		out := udpbatch.Message{Buf: make([]byte, 0, 512)}
		if !s.respond(pkt, srcAP, &q, &out) {
			b.Fatal("fast path refused the flood query")
		}
		// Warm scratch and caches: at -benchtime=1x the one timed packet
		// would otherwise pay for a cold path.
		for i := 0; i < 1000; i++ {
			s.respond(pkt, srcAP, &q, &out)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.respond(pkt, srcAP, &q, &out)
		}
		b.StopTimer()
		reportQPS(b)
	})
}

// BenchmarkServerEcho measures end-to-end throughput over a real loopback
// socket: a pipelined client keeps a window of queries in flight against a
// server with 1, 2, and 4 reader workers. The qps metric is what the
// EXPERIMENTS.md table reports.
func BenchmarkServerEcho(b *testing.B) {
	pkt, err := dnswire.NewQuery(7, "www.336901.com", dnswire.TypeA, dnswire.ClassINET).Pack()
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "workers=1", 2: "workers=2", 4: "workers=4"}[workers], func(b *testing.B) {
			s, err := Start(Config{Letter: 'K', Site: "AMS", Server: 1, Workers: workers, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			conn, err := net.DialUDP("udp", nil, s.Addr())
			if err != nil {
				b.Fatal(err)
			}
			defer conn.Close()

			reply := make([]byte, 512)
			echo := func(window int) {
				for k := 0; k < window; k++ {
					if _, err := conn.Write(pkt); err != nil {
						b.Fatal(err)
					}
				}
				conn.SetReadDeadline(time.Now().Add(5 * time.Second))
				for k := 0; k < window; k++ {
					if _, err := conn.Read(reply); err != nil {
						b.Fatalf("reply %d/%d: %v", k, window, err)
					}
				}
			}
			echo(16) // warm worker scratch before timing (matters at -benchtime=1x)

			const window = 16
			b.ResetTimer()
			for done := 0; done < b.N; {
				w := window
				if left := b.N - done; left < w {
					w = left
				}
				echo(w)
				done += w
			}
			b.StopTimer()
			reportQPS(b)
		})
	}
}

// BenchmarkProbeUDP measures one closed-loop identity probe over loopback
// UDP against an idle in-process server: what a legitimate client, a
// sitemgr health check or one catchment-mapping probe pays per query.
// rootbench's probe_closed workload tracks the same path end to end.
func BenchmarkProbeUDP(b *testing.B) {
	s, err := Start(Config{Letter: 'K', Site: "AMS", Server: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	p := NewProber(1)
	defer p.Close()
	addr := s.Addr()
	probe := func() {
		res, err := p.Probe(addr, 'K')
		if err != nil || !res.Matched {
			b.Fatalf("probe: %+v, %v", res, err)
		}
	}
	probe() // warm the server's scratch and the prober's socket
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probe()
	}
}

// reportQPS emits queries-per-second as a custom metric.
func reportQPS(b *testing.B) {
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "qps")
	}
}
