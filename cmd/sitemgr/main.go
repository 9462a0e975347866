// Command sitemgr runs the self-healing anycast site manager for one
// letter: N real UDP/TCP DNS servers on loopback, health-assessed every
// tick (active CHAOS probes + server counter deltas), announce/withdraw
// driven through the simulated BGP fabric with flap damping and a
// minimum-announced floor, and every decision journaled crash-safely so a
// killed manager resumes with its damping history.
//
// The manager ticks once at start and then every -interval. With -ticks N
// it stops after N ticks, reports and exits 0; an interrupt before that
// exits 4 (core.ExitCanceled). Without -ticks it runs until interrupted,
// and the interrupt is the normal stop: it reports and exits 0.
//
// The observable surface for soaks and dashboards is the -state file
// (atomic JSON: per-site state, penalties, catchments, and sampled
// ASN-to-site routings) and the -journal ledger (readable live with
// sitemgr.ReadJournal).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/rootevent/anycastddos/internal/core"
	"github.com/rootevent/anycastddos/internal/faults"
	"github.com/rootevent/anycastddos/internal/rrl"
	"github.com/rootevent/anycastddos/internal/sitemgr"
	"github.com/rootevent/anycastddos/internal/topo"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sitemgr: ")
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("sitemgr", flag.ContinueOnError)
	letter := fs.String("letter", "K", "root letter to serve")
	sitesFlag := fs.String("sites", "AMS,LHR,NRT", "comma-separated IATA site names")
	minAnnounced := fs.Int("min-announced", 1, "never let announced sites drop below this floor")
	seed := fs.Int64("seed", 7, "seed for topology, probes, and server coins")
	journal := fs.String("journal", "", "decision journal path (crash-safe resume); empty disables")
	state := fs.String("state", "", "atomic state.json path rewritten every tick; empty disables")
	interval := fs.Duration("interval", 250*time.Millisecond, "assessment tick period")
	ticks := fs.Int("ticks", 0, "stop after this many ticks (0 = run until interrupted)")
	samples := fs.Int("samples", 8, "number of sampled ASNs published in the state file")
	faultProfile := fs.String("faultprofile", "", "inject control-plane faults: healthmon (or light, heavy, monitor)")
	faultSeed := fs.Int64("faultseed", 1, "seed for the injected fault plan")
	rps := fs.Int("rrl-rps", 0, "per-server RRL responses/second (0 disables RRL)")
	fast := fs.Bool("fast", false, "aggressive FSM tuning and short probe timeouts (soaks and demos)")
	if err := fs.Parse(args); err != nil {
		return core.UsageExit(err)
	}

	var sites []string
	for _, s := range strings.Split(*sitesFlag, ",") {
		if s = strings.TrimSpace(s); s != "" {
			sites = append(sites, s)
		}
	}
	// Reject here what sitemgr.New would bend, or fail on only after it
	// has bound the sites' sockets.
	bad := ""
	switch {
	case len(*letter) != 1 || !strings.Contains("ABCDEFGHIJKLM", *letter):
		bad = "-letter must be one root letter, A to M"
	case len(sites) == 0:
		bad = "-sites needs at least one site"
	case *minAnnounced < 1 || *minAnnounced > len(sites):
		bad = fmt.Sprintf("-min-announced must be 1 to %d, the -sites count", len(sites))
	case *interval <= 0:
		bad = "-interval must be positive"
	case *ticks < 0:
		bad = "-ticks must not be negative"
	case *rps < 0:
		bad = "-rrl-rps must not be negative"
	case *samples < 0:
		bad = "-samples must not be negative"
	}
	if bad != "" {
		log.Print(bad)
		return core.ExitUsage
	}

	cfg := sitemgr.ManagerConfig{
		Letter:       (*letter)[0],
		Sites:        sites,
		MinAnnounced: *minAnnounced,
		Seed:         *seed,
		JournalPath:  *journal,
		StatePath:    *state,
		SampleASNs:   spreadASNs(*samples),
	}
	if *rps > 0 {
		cfg.RRL = &rrl.Config{ResponsesPerSecond: float64(*rps), Burst: float64(*rps), SlipRatio: 0, PrefixBits: 32}
	}
	if *fast {
		cfg.FSM = sitemgr.Config{
			StressTicks: 1, FailTicks: 2, RecoverTicks: 2, DrainTicks: 2,
			ReprobeTicks: 2, ProbationTicks: 2, PenaltyHalfLife: 4,
		}
		cfg.ProbeTimeout = 150 * time.Millisecond
		cfg.ProbeRetries = -1 // single attempt per tick
	}
	if *faultProfile != "" {
		profile, err := faults.ProfileByName(*faultProfile)
		if err != nil {
			log.Print(err)
			return core.ExitUsage
		}
		shape := faults.Shape{Minutes: 1 << 20, Sites: map[byte]int{cfg.Letter: len(sites)}}
		compiled, err := faults.Compile(faults.RandomPlan(*faultSeed, profile), shape)
		if err != nil {
			log.Print(err)
			return core.ExitUsage
		}
		cfg.Faults = compiled
		log.Printf("injecting %s", compiled.Plan())
	}

	m, err := sitemgr.New(cfg)
	if err != nil {
		log.Print(err)
		return core.ExitCode(err)
	}
	defer func() {
		if cerr := m.Close(); cerr != nil {
			log.Printf("close: %v", cerr)
		}
	}()

	for i, s := range sites {
		log.Printf("site %d %s at %s", i, s, m.SiteAddr(i))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The health machines never see the clock: only the tick cadence is
	// wall time.
	ticker := time.NewTicker(*interval)
	defer ticker.Stop()
	for n := 0; *ticks == 0 || n < *ticks; n++ {
		if err := m.TickOnce(ctx); err != nil {
			log.Print(err)
			return core.ExitCode(err)
		}
		select {
		case <-ticker.C:
		case <-ctx.Done():
			if *ticks > 0 {
				return core.ExitCanceled
			}
			// An interrupt is the normal way to stop an open-ended run.
			report(m)
			return core.ExitOK
		}
	}
	report(m)
	return core.ExitOK
}

// report logs the final per-site positions.
func report(m *sitemgr.Manager) {
	st := m.Status()
	log.Printf("tick %d: %d/%d announced (fabric v%d)", st.Tick, st.Announced, len(st.Sites), st.Version)
	for _, s := range st.Sites {
		log.Printf("  site %d %s: %s penalty %.0f catchment %d",
			s.Index, s.Name, s.State, s.Penalty, s.Catchment)
	}
}

// spreadASNs picks n spread-out sample ASNs for the state file.
func spreadASNs(n int) []topo.ASN {
	out := make([]topo.ASN, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, topo.ASN(10+7*i))
	}
	return out
}
