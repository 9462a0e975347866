// Quickstart: build a three-site anycast deployment on a synthetic
// Internet, attack it, and see the two defense policies — withdraw and
// degraded absorber — produce different service outcomes.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"github.com/rootevent/anycastddos/internal/attack"
	"github.com/rootevent/anycastddos/internal/bgpsim"
	"github.com/rootevent/anycastddos/internal/netsim"
	"github.com/rootevent/anycastddos/internal/topo"
)

func main() {
	log.SetFlags(0)

	// 1. A synthetic Internet: tier-1 clique, regional transit, stubs.
	g, err := topo.Generate(topo.Config{Tier1s: 5, Tier2s: 40, Stubs: 400, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	stubs := g.StubASNs()

	// 2. An anycast service with three sites, announced from three hosts.
	origins := []bgpsim.Origin{
		{Site: 0, Host: stubs[10]},
		{Site: 1, Host: stubs[150]},
		{Site: 2, Host: stubs[300]},
	}
	capacities := []float64{500_000, 150_000, 150_000}
	table := bgpsim.Compute(g, origins, nil)
	sizes := table.CatchmentSizes(3)
	fmt.Println("Catchments under normal routing:")
	for site, n := range sizes {
		fmt.Printf("  site %d: %4d ASes (capacity %.0f q/s)\n", site, n, capacities[site])
	}

	// 3. A botnet floods the service; load lands per catchment.
	botnet := attack.NewBotnet(g, 25, 3)
	perAS := botnet.RatePerAS(1_200_000)
	load := make([]netsim.Load, 3)
	for asn, qps := range perAS {
		if site := table.SiteOf(asn); site >= 0 {
			load[site].AttackQPS += qps
		}
	}

	fmt.Println("\nUnder attack (1.2 Mq/s total), absorbing in place:")
	for site := range load {
		st, err := netsim.Evaluate(capacities[site], load[site], netsim.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  site %d: offered %8.0f q/s, loss %5.1f%%, +%4.0f ms queueing\n",
			site, st.OfferedQPS, st.LossFrac*100, st.ExtraDelayMs)
	}

	// 4. Withdraw the most overloaded small site and watch the waterbed:
	// its catchment (attack included) shifts to the surviving sites.
	worst := 1
	if load[2].AttackQPS > load[1].AttackQPS {
		worst = 2
	}
	active := []bool{true, true, true}
	active[worst] = false
	shifted := bgpsim.Compute(g, origins, active)
	moved := len(bgpsim.Diff(table, shifted))
	fmt.Printf("\nWithdrawing site %d moves %d ASes to other sites:\n", worst, moved)
	newLoad := make([]netsim.Load, 3)
	for asn, qps := range perAS {
		if site := shifted.SiteOf(asn); site >= 0 {
			newLoad[site].AttackQPS += qps
		}
	}
	for site := range newLoad {
		if site == worst {
			fmt.Printf("  site %d: withdrawn\n", site)
			continue
		}
		st, err := netsim.Evaluate(capacities[site], newLoad[site], netsim.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  site %d: offered %8.0f q/s, loss %5.1f%%, +%4.0f ms queueing\n",
			site, st.OfferedQPS, st.LossFrac*100, st.ExtraDelayMs)
	}
	fmt.Println("\nWhether that trade is worth it is exactly the §2.2 policy question —")
	fmt.Println("see `go run ./cmd/rootevent -small -only fig2` for the full five-case analysis.")
}
