// Livechaos exercises the real-socket half of the library: it starts UDP
// DNS servers for two anycast sites of "K-Root" on loopback, floods one of
// them to trip response-rate limiting, and then runs CHAOS catchment
// mapping with the prober — all over genuine DNS packets produced and
// parsed by internal/dnswire.
//
//	go run ./examples/livechaos
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"github.com/rootevent/anycastddos/internal/dnsserver"
	"github.com/rootevent/anycastddos/internal/dnswire"
	"github.com/rootevent/anycastddos/internal/rrl"
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
	log.Printf("sites up: %s at %s, %s at %s", ams.Identity(), ams.Addr(), lhr.Identity(), lhr.Addr())

	// 1. CHAOS catchment mapping, exactly like an Atlas VP.
	prober := dnsserver.NewProber(1)
	prober.Timeout = time.Second
	sites, err := prober.MapCatchment([]*net.UDPAddr{ams.Addr(), lhr.Addr()}, 'K')
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nCatchment map from hostname.bind parsing: %v\n", sites)

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
	fmt.Printf("Priming response: %d NS records in %d wire bytes\n", len(resp.Answers), n)

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
