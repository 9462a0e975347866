// Livechaos exercises the real-socket half of the library: it starts UDP
// DNS servers for three anycast sites of "K-Root" on loopback, maps their
// catchment with CHAOS hostname.bind probes the way a RIPE Atlas VP does —
// including a degraded site that drops and delays queries — and then
// floods one site to trip response-rate limiting, all over genuine DNS
// packets produced and parsed by internal/dnswire. Every printed line is
// fixed apart from its RTT and count values.
//
//	go run ./examples/livechaos
package main

import (
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"github.com/rootevent/anycastddos/internal/dnsserver"
	"github.com/rootevent/anycastddos/internal/dnswire"
	"github.com/rootevent/anycastddos/internal/report"
	"github.com/rootevent/anycastddos/internal/rrl"
)

// The degraded absorber: a third site that loses and delays queries, probed
// probesPerSite times alongside the two healthy ones.
const (
	probesPerSite = 40
	degradedLoss  = 0.6
	degradedDelay = 150 * time.Millisecond
)

func main() {
	log.SetFlags(0)

	rrlCfg := rrl.DefaultConfig()
	rrlCfg.ResponsesPerSecond = 20
	rrlCfg.SlipRatio = 2

	ams, err := dnsserver.Start(dnsserver.Config{Letter: 'K', Site: "AMS", Server: 1, RRL: &rrlCfg})
	if err != nil {
		log.Fatal(err)
	}
	defer ams.Close()
	lhr, err := dnsserver.Start(dnsserver.Config{Letter: 'K', Site: "LHR", Server: 2, RRL: &rrlCfg})
	if err != nil {
		log.Fatal(err)
	}
	defer lhr.Close()
	nrt, err := dnsserver.Start(dnsserver.Config{Letter: 'K', Site: "NRT", Server: 3, RRL: &rrlCfg,
		LossProb: degradedLoss, Delay: degradedDelay, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	defer nrt.Close()
	log.Printf("sites up: %s, %s, %s (degraded)", ams.Identity(), lhr.Identity(), nrt.Identity())

	// 1. CHAOS catchment mapping, exactly like an Atlas VP.
	prober := dnsserver.NewProber(1)
	defer prober.Close()
	prober.Timeout = time.Second
	sites, err := prober.MapCatchment([]*net.UDPAddr{ams.Addr(), lhr.Addr()}, 'K')
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nCatchment map from hostname.bind parsing: %v\n", sites)

	// Probe every site in turn: the degraded one answers fewer probes at
	// higher RTT.
	prober.Timeout = 500 * time.Millisecond
	rows := [][]string{}
	timeouts := 0
	for _, site := range []struct {
		srv  *dnsserver.Server
		name string
		loss float64
	}{{ams, "K-AMS", 0}, {lhr, "K-LHR", 0}, {nrt, "K-NRT", degradedLoss}} {
		replies := 0
		var rttSum time.Duration
		for i := 0; i < probesPerSite; i++ {
			res, err := prober.Probe(site.srv.Addr(), 'K')
			if err != nil {
				timeouts++
				continue
			}
			if res.Matched {
				replies++
				rttSum += res.RTT
			}
		}
		mean := rttSum / time.Duration(max(replies, 1))
		rows = append(rows, []string{site.name, fmt.Sprint(replies),
			fmt.Sprintf("%d ms", mean.Milliseconds()), fmt.Sprintf("%.0f%%", site.loss*100)})
	}
	fmt.Printf("\nPer-site probing (%d probes/site, %d timeouts):\n\n", probesPerSite, timeouts)
	if err := report.WriteTable(os.Stdout, []string{"site", "replies", "mean RTT", "injected loss"}, rows); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nThe degraded absorber answers fewer probes at higher RTT — the")
	fmt.Println("signature the paper reads off K-AMS and K-NRT (Figures 6 and 7).")

	// 2. A root priming query over real packets.
	conn, err := net.DialUDP("udp", nil, ams.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	q := dnswire.NewQuery(42, ".", dnswire.TypeNS, dnswire.ClassINET)
	pkt, err := q.Pack()
	if err != nil {
		log.Fatal(err)
	}
	if _, err := conn.Write(pkt); err != nil {
		log.Fatal(err)
	}
	buf := make([]byte, 4096)
	conn.SetReadDeadline(time.Now().Add(time.Second))
	n, err := conn.Read(buf)
	if err != nil {
		log.Fatal(err)
	}
	var resp dnswire.Message
	if err := dnswire.DecodeInto(buf[:n], &resp); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPriming response: %d NS records in %d wire bytes\n", len(resp.Answers), n)

	// 3. Flood K-LHR with a fixed-name query storm from one source and
	// watch RRL suppress the responses (the §2.3 defense).
	flood, err := net.DialUDP("udp", nil, lhr.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer flood.Close()
	attackQ := dnswire.NewQuery(7, "www.336901.com", dnswire.TypeA, dnswire.ClassINET)
	attackPkt, err := attackQ.Pack()
	if err != nil {
		log.Fatal(err)
	}
	const floodN = 2000
	for i := 0; i < floodN; i++ {
		if _, err := flood.Write(attackPkt); err != nil {
			log.Fatal(err)
		}
	}
	time.Sleep(300 * time.Millisecond) // let the read loop drain
	received, answered, _, droppedRRL := lhr.Stats()
	fmt.Printf("\nFlooded %s with %d fixed-name queries from one source:\n", lhr.Identity(), floodN)
	fmt.Printf("  received %d, answered %d, RRL-suppressed %d (%.0f%%)\n",
		received, answered, droppedRRL, float64(droppedRRL)/float64(received)*100)
	fmt.Println("\nRRL lets the first burst through, then drops duplicates — the")
	fmt.Println("mechanism Verisign credited with shedding ~60% of event responses.")
}
