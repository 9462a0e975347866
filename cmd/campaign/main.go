// Command campaign sweeps a declarative grid of attack/defense/fault
// scenarios through isolated scenario worker processes and aggregates the
// outcomes into one machine-readable report.
//
// Usage:
//
//	campaign -spec FILE -dir DIR [-resume] [-parallel N] [-timeout D]
//	         [-stall-timeout D] [-retries N] [-seed N] [-progress]
//	campaign diff OLD.json NEW.json
//
// The diff subcommand compares two campaign.json reports — grid
// membership, per-scenario terminal status/failure class, embedded
// outcome bytes, and the aggregate metrics — and exits 0 when they are
// equivalent, 1 when they differ (the `git diff --exit-code` convention,
// so a regression sweep can gate on it).
//
// The spec (see internal/campaign) declares per-axis value lists —
// schedules, intensities, duration scales, target sets, defense policies,
// fault plans, seeds — that are crossed into a deterministic scenario
// grid. Scenarios run in worker processes — this binary re-invoked as
// `campaign -exec-scenario -`, one per -parallel slot, each reading one
// scenario.json path per stdin line, writing outcome.json next to it and
// answering "<id> done" (internal/campaign.Serve) — under a hard
// per-attempt deadline, heartbeat-based stall detection, and bounded
// seeded-backoff retries; a failed attempt costs its worker, which is
// replaced. `campaign -exec-scenario FILE` runs a single scenario file the
// same way. Progress is recorded in a crash-safe ledger under -dir, so
// after a crash or SIGKILL
//
//	campaign -spec FILE -dir DIR -resume
//
// skips completed scenarios, re-queues in-flight ones, and produces a
// campaign.json byte-identical to an uninterrupted run. Scenarios that
// keep failing are quarantined with a failure class (panic, timeout,
// stall, exit:N, ...) instead of aborting the sweep: the campaign exits 0
// with a degraded report as long as the grid reached a terminal state.
//
// Exit status follows the core.Exit* contract; the scenario workers use
// it too, which is how the runner classifies their failures.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"github.com/rootevent/anycastddos/internal/analysis"
	"github.com/rootevent/anycastddos/internal/campaign"
	"github.com/rootevent/anycastddos/internal/core"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("campaign: ")
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout))
}

// run is the whole command: stdin and stdout matter only to worker mode
// (scenario paths in, heartbeats and done reports out) and to diff's
// rendering.
func run(args []string, stdin io.Reader, stdout io.Writer) int {
	if len(args) > 0 && args[0] == "diff" {
		return diffMain(args[1:], stdout)
	}

	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	specPath := fs.String("spec", "", "campaign spec JSON (required)")
	dir := fs.String("dir", "", "campaign directory: ledger, per-scenario state, report (required)")
	resume := fs.Bool("resume", false, "resume the campaign recorded in -dir's ledger")
	parallel := fs.Int("parallel", 2, "scenarios run concurrently, one worker process each")
	timeout := fs.Duration("timeout", 10*time.Minute, "hard per-scenario-attempt deadline")
	stallTimeout := fs.Duration("stall-timeout", 30*time.Second, "kill an attempt silent for this long")
	retries := fs.Int("retries", 3, "attempts before a scenario is quarantined")
	seed := fs.Int64("seed", 1, "retry-backoff jitter seed")
	progress := fs.Bool("progress", false, "log per-scenario lifecycle events")
	execScenario := fs.String("exec-scenario", "", "internal: worker mode — run the scenario in this file, or with - every scenario file named on a line of stdin")
	if err := fs.Parse(args); err != nil {
		return core.UsageExit(err)
	}

	if *execScenario != "" {
		return workerMain(*execScenario, stdin, stdout)
	}
	if *specPath == "" || *dir == "" {
		log.Print("need -spec FILE and -dir DIR")
		fs.Usage()
		return core.ExitUsage
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		log.Print(err)
		return core.ExitFailure
	}
	spec, err := campaign.ParseSpec(data)
	if err != nil {
		log.Print(err)
		return core.ExitUsage
	}
	self, err := os.Executable()
	if err != nil {
		log.Printf("resolve own binary for scenario children: %v", err)
		return core.ExitFailure
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rc := campaign.RunnerConfig{
		Dir:          *dir,
		Bin:          self,
		BaseArgs:     []string{"-exec-scenario"},
		Parallel:     *parallel,
		Timeout:      *timeout,
		StallTimeout: *stallTimeout,
		MaxAttempts:  *retries,
		Seed:         *seed,
		Resume:       *resume,
	}
	if *progress {
		rc.Logf = log.Printf
	}
	rep, err := campaign.Run(ctx, spec, rc)
	if err != nil {
		code := core.ExitCode(err)
		log.Printf("campaign failed (exit %d): %v", code, err)
		return code
	}
	reportPath := filepath.Join(*dir, campaign.ReportFileName)
	if err := campaign.WriteReport(reportPath, rep); err != nil {
		log.Print(err)
		return core.ExitFailure
	}
	log.Printf("%s: %d scenarios — %d completed, %d quarantined, %d pending -> %s",
		rep.Name, rep.GridSize, rep.Completed, rep.Quarantined, rep.Pending, reportPath)
	for _, sr := range rep.Scenarios {
		if sr.Status == campaign.StatusQuarantined {
			log.Printf("  quarantined %s (%s)", sr.ID, sr.FailureClass)
		}
	}
	return core.ExitOK
}

// diffMain is the diff subcommand: compare two campaign.json reports and
// exit 0 on equivalence, 1 on difference.
func diffMain(args []string, stdout io.Writer) int {
	if len(args) != 2 {
		log.Print("usage: campaign diff OLD.json NEW.json")
		return core.ExitUsage
	}
	oldRep, err := campaign.ReadReport(args[0])
	if err != nil {
		log.Print(err)
		return core.ExitUsage
	}
	newRep, err := campaign.ReadReport(args[1])
	if err != nil {
		log.Print(err)
		return core.ExitUsage
	}
	d := campaign.DiffReports(oldRep, newRep)
	fmt.Fprint(stdout, d.Render())
	if d.Empty() {
		return core.ExitOK
	}
	return core.ExitFailure
}

// workerMain is scenario-worker mode: serve the scenario file at path, or
// with "-" every scenario file named on a line of in, each leaving its
// outcome next to its scenario file. Lines on out double as liveness
// heartbeats for the runner's stall detector, and the exit status follows
// the core.Exit* contract so the runner can classify failures.
func workerMain(path string, in io.Reader, out io.Writer) int {
	if path != campaign.ServeStdin {
		in = strings.NewReader(path + "\n")
	}
	return campaign.Serve(in, out, runScenario)
}

// runScenario is the worker's campaign.ScenarioFunc: the scenario's
// simulation, with its scripted chaos checked on every progress event —
// not only the ones that become heartbeats — so it fires at its minute.
func runScenario(sc *campaign.Scenario, beat campaign.Beat) (*analysis.Outcome, error) {
	return sc.Execute(func(p core.Progress) {
		if sc.Chaos != nil && p.Stage == core.StageRun && p.Done >= sc.Chaos.Minute {
			applyChaos(sc.Chaos)
		}
		beat(p.Stage, p.Done, p.Total)
	})
}

// applyChaos fires a scripted failure — the campaign-smoke hook proving
// the runner quarantines misbehaving scenarios instead of dying with them.
func applyChaos(c *campaign.ChaosSpec) {
	switch c.Kind {
	case "panic":
		panic(fmt.Sprintf("scripted chaos panic at minute %d", c.Minute))
	case "stall":
		// Sleep, not select{}: with every other goroutine parked on channels
		// the runtime's deadlock detector would crash the process (exit 2)
		// and the parent would see a panic instead of a stall.
		for {
			time.Sleep(time.Hour) //repolint:allow wallclock -- scripted stall, test-only chaos path
		}
	case "exit":
		os.Exit(c.Code)
	}
}
