// Command chaossoak soaks the evaluation engine under adversarial
// conditions. It has two modes:
//
//	-mode soak (default): for each seed it draws a deterministic fault
//	plan, runs a small but full-pipeline simulation with the faults
//	injected, and checks that the engine finishes cleanly — no panics
//	(worker panics surface as wrapped errors naming the letter and
//	minute) and a measurable dataset at the end. The first few seeds are
//	additionally replayed sequentially to prove the faulted run is
//	worker-count independent.
//
//	-mode killresume: builds the rootevent binary, records the golden
//	dataset hash of an uninterrupted run, then repeatedly SIGKILLs a
//	checkpointing child at seeded random epochs and resumes it from the
//	snapshots the kill left behind. The final resumed run's hash must
//	equal the golden hash — the crash-recovery guarantee, end to end
//	through real process death. Run it from the repository root.
//
//	-mode campaignresume: the same guarantee one level up, for the
//	campaign runner. It records the golden campaign.json of an
//	uninterrupted grid sweep, then repeatedly SIGKILLs the runner at
//	seeded points of ledger progress and resumes it; the final resumed
//	campaign.json must be byte-identical to the golden one. Run it from
//	the repository root.
//
//	-mode campaignsmoke: runs a tiny campaign grid containing one
//	scripted-panic and one scripted-stall scenario and verifies both end
//	up quarantined with the right failure class while the clean
//	scenarios complete — the degraded-mode guarantee behind
//	`make campaign-smoke`. Run it from the repository root.
//
//	-mode sitefailover: builds the sitemgr binary, runs it as a child
//	serving three real loopback sites, floods one with real UDP until
//	the manager withdraws it, verifies the catchment shift with a real
//	CHAOS probe, SIGKILLs the manager and proves the journal resume
//	keeps the site withdrawn with its damping penalty, then lifts the
//	flood and watches the site heal back into rotation. The guarantee
//	behind `make soak-failover`. Run it from the repository root.
//
// Usage:
//
//	chaossoak [-mode soak|killresume|campaignresume|campaignsmoke|sitefailover]
//	          [-seeds N] [-profile light|heavy|monitor]
//	          [-workers N] [-minutes N] [-equiv N] [-kills N] [-seed N]
//
// The first failed verification exits non-zero immediately.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"encoding/json"

	"github.com/rootevent/anycastddos/internal/campaign"
	"github.com/rootevent/anycastddos/internal/checkpoint"
	"github.com/rootevent/anycastddos/internal/core"
	"github.com/rootevent/anycastddos/internal/faults"
	"github.com/rootevent/anycastddos/internal/topo"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("chaossoak: ")
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("chaossoak", flag.ContinueOnError)
	mode := fs.String("mode", "soak", "soak (fault-plan survival) or killresume (SIGKILL + checkpoint resume)")
	seeds := fs.Int("seeds", 8, "soak: number of fault-plan seeds")
	profileName := fs.String("profile", "heavy", "soak: fault profile: light, heavy, or monitor")
	workers := fs.Int("workers", 4, "engine worker goroutines")
	minutes := fs.Int("minutes", 1440, "simulated minutes per run")
	equiv := fs.Int("equiv", 2, "soak: seeds to replay sequentially for worker-equivalence")
	kills := fs.Int("kills", 3, "killresume: SIGKILL cycles before the final resume")
	seed := fs.Int64("seed", 7, "killresume: seed for the run and the kill schedule")
	if err := fs.Parse(args); err != nil {
		return core.UsageExit(err)
	}

	// Interrupts cancel the in-flight engine run or child process instead
	// of leaving it orphaned.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch *mode {
	case "soak":
		if err := soak(ctx, *seeds, *profileName, *workers, *minutes, *equiv); err != nil {
			log.Print(err)
			return core.ExitCode(err)
		}
	case "killresume":
		if err := killResume(ctx, *seed, *kills, *minutes, *workers); err != nil {
			log.Print(err)
			return core.ExitCode(err)
		}
		log.Printf("killresume ok: %d kill cycles, resumed hash matches golden (seed %d)", *kills, *seed)
	case "campaignresume":
		if err := campaignResume(ctx, *seed, *kills); err != nil {
			log.Print(err)
			return core.ExitCode(err)
		}
		log.Printf("campaignresume ok: %d kill cycles, resumed campaign.json matches golden byte for byte (seed %d)", *kills, *seed)
	case "campaignsmoke":
		if err := campaignSmoke(ctx); err != nil {
			log.Print(err)
			return core.ExitCode(err)
		}
		log.Printf("campaignsmoke ok: panic and stall scenarios quarantined, clean scenarios completed")
	case "sitefailover":
		if err := siteFailover(ctx, *seed); err != nil {
			log.Print(err)
			return core.ExitCode(err)
		}
		log.Printf("sitefailover ok: withdraw, catchment shift, SIGKILL resume, and re-announce all verified (seed %d)", *seed)
	default:
		log.Printf("unknown -mode %q (soak, killresume, campaignresume, campaignsmoke, or sitefailover)", *mode)
		return core.ExitUsage
	}
	return core.ExitOK
}

// soak runs the fault-plan survival matrix, failing fast on the first
// seed that panics, errors, or breaks worker-count equivalence.
func soak(ctx context.Context, seeds int, profileName string, workers, minutes, equiv int) error {
	profile, err := faults.ProfileByName(profileName)
	if err != nil {
		return err
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("soak canceled at seed %d: %w", seed, err)
		}
		plan := faults.RandomPlan(seed, profile)
		start := time.Now()
		hash, err := soakRun(ctx, plan, seed, minutes, workers)
		if err != nil {
			return fmt.Errorf("seed %d (%v): %w", seed, time.Since(start).Round(time.Millisecond), err)
		}
		status := fmt.Sprintf("seed %d ok   (%v, %d fault events, hash %x)",
			seed, time.Since(start).Round(time.Millisecond), len(plan.Events), hash[:4])
		if seed <= int64(equiv) && workers != 1 {
			seqHash, err := soakRun(ctx, plan, seed, minutes, 1)
			if err != nil {
				return fmt.Errorf("seed %d sequential replay: %w", seed, err)
			}
			if seqHash != hash {
				return fmt.Errorf("seed %d: workers=%d hash %x != workers=1 hash %x",
					seed, workers, hash[:4], seqHash[:4])
			}
			status += " equiv-ok"
		}
		log.Print(status)
	}
	log.Printf("all %d seeds survived (%s profile, %d workers)", seeds, profileName, workers)
	return nil
}

// soakRun executes one faulted simulation and returns the dataset hash.
func soakRun(ctx context.Context, plan *faults.Plan, seed int64, minutes, workers int) ([32]byte, error) {
	var zero [32]byte
	cfg := core.DefaultConfig(seed)
	cfg.Topology = &topo.Config{Tier1s: 5, Tier2s: 40, Stubs: 400, Seed: seed}
	cfg.VPs = 150
	cfg.BotnetOrigins = 25
	cfg.Minutes = minutes
	ev, err := core.NewEvaluator(cfg, core.WithWorkers(workers), core.WithFaults(plan), core.WithContext(ctx))
	if err != nil {
		return zero, err
	}
	if err := ev.Run(); err != nil {
		return zero, err
	}
	d, err := ev.Measure()
	if err != nil {
		return zero, err
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		return zero, err
	}
	return sha256.Sum256(buf.Bytes()), nil
}

// killResume proves crash recovery through real process death: golden
// uninterrupted child, then `kills` SIGKILL-at-a-seeded-epoch cycles
// resuming from checkpoints, then a final resume to completion whose
// dataset hash must equal the golden one.
func killResume(ctx context.Context, seed int64, kills, minutes, workers int) error {
	if minutes < 40 {
		return fmt.Errorf("killresume needs -minutes >= 40 to fit kill points, got %d", minutes)
	}
	work, err := os.MkdirTemp("", "chaossoak-killresume-*")
	if err != nil {
		return fmt.Errorf("workdir: %w", err)
	}
	defer os.RemoveAll(work)

	bin := filepath.Join(work, "rootevent")
	log.Printf("building rootevent...")
	if out, err := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/rootevent").CombinedOutput(); err != nil {
		return fmt.Errorf("build rootevent (run from the repo root): %w\n%s", err, out)
	}

	common := []string{
		"-small",
		"-seed", strconv.FormatInt(seed, 10),
		"-minutes", strconv.Itoa(minutes),
		"-workers", strconv.Itoa(workers),
		"-only", "none",
	}
	goldenHash := filepath.Join(work, "golden.hash")
	log.Printf("golden uninterrupted run (seed %d, %d minutes)...", seed, minutes)
	if err := runChild(ctx, bin, append(common,
		"-out", filepath.Join(work, "out-golden"), "-hashfile", goldenHash)); err != nil {
		return fmt.Errorf("golden run: %w", err)
	}

	ckptDir := filepath.Join(work, "ckpt")
	for k, target := range killTargets(seed, kills, minutes) {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("killresume canceled before cycle %d: %w", k, err)
		}
		args := append(common,
			"-out", filepath.Join(work, fmt.Sprintf("out-kill%d", k)),
			"-checkpoint", ckptDir, "-resume")
		completed, err := killCycle(ctx, bin, args, ckptDir, target)
		if err != nil {
			return fmt.Errorf("kill cycle %d: %w", k, err)
		}
		if completed {
			log.Printf("cycle %d: child completed before the minute-%d kill point", k, target)
			continue
		}
		m, err := checkpoint.LatestMinute(ckptDir)
		if err != nil {
			return fmt.Errorf("kill cycle %d left no readable checkpoint: %w", k, err)
		}
		log.Printf("cycle %d: SIGKILLed child past minute %d (newest snapshot: minute %d)", k, target, m)
	}

	resumedHash := filepath.Join(work, "resumed.hash")
	log.Printf("final resume to completion...")
	if err := runChild(ctx, bin, append(common,
		"-out", filepath.Join(work, "out-final"),
		"-checkpoint", ckptDir, "-resume", "-hashfile", resumedHash)); err != nil {
		return fmt.Errorf("final resume: %w", err)
	}

	golden, err := os.ReadFile(goldenHash)
	if err != nil {
		return fmt.Errorf("read golden hash: %w", err)
	}
	resumed, err := os.ReadFile(resumedHash)
	if err != nil {
		return fmt.Errorf("read resumed hash: %w", err)
	}
	if !bytes.Equal(golden, resumed) {
		return fmt.Errorf("resumed dataset hash %s != golden %s",
			strings.TrimSpace(string(resumed)), strings.TrimSpace(string(golden)))
	}
	return nil
}

// runChild runs one rootevent invocation to completion, folding its
// combined output into the wrapped error on failure.
func runChild(ctx context.Context, bin string, args []string) error {
	cmd := exec.CommandContext(ctx, bin, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s %s: %w\n%s", filepath.Base(bin), strings.Join(args, " "), err, out.Bytes())
	}
	return nil
}

// killTargets draws an increasing seeded schedule of kill minutes, each a
// checkpoint-stride multiple, so every cycle advances past new snapshots.
func killTargets(seed int64, kills, minutes int) []int {
	const stride = 10
	rng := rand.New(rand.NewSource(seed))
	span := minutes - 2*stride // keep clear of the end so kills interrupt
	targets := make([]int, kills)
	lo := stride
	for k := range targets {
		hi := span - (kills-1-k)*stride
		t := lo
		if hi > lo {
			t = lo + rng.Intn((hi-lo)/stride+1)*stride
		}
		targets[k] = t
		lo = t + stride
	}
	return targets
}

// campaignGridSpec is the tiny 4-scenario grid both campaign modes sweep:
// small enough to finish in seconds, big enough for partial progress
// between kills. campaignsmoke adds scripted chaos on top of it.
func campaignGridSpec(chaos bool) string {
	spec := `{
  "name": "chaossoak",
  "vps": 80,
  "minutes": 120,
  "topology": {"tier1s": 4, "tier2s": 24, "stubs": 160},
  "axes": {"defenses": ["absorb"], "seeds": [1, 2, 3, 4]}`
	if chaos {
		spec += `,
  "chaos": [
    {"scenario": 2, "kind": "panic", "minute": 20},
    {"scenario": 3, "kind": "stall", "minute": 20}
  ]`
	}
	return spec + "\n}\n"
}

// buildCampaignBin builds the campaign binary into work and writes the
// spec next to it, returning both paths.
func buildCampaignBin(ctx context.Context, work string, chaos bool) (bin, specPath string, err error) {
	bin = filepath.Join(work, "campaign-bin")
	log.Printf("building campaign...")
	if out, err := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/campaign").CombinedOutput(); err != nil {
		return "", "", fmt.Errorf("build campaign (run from the repo root): %w\n%s", err, out)
	}
	specPath = filepath.Join(work, "spec.json")
	if err := os.WriteFile(specPath, []byte(campaignGridSpec(chaos)), 0o644); err != nil { //repolint:allow atomicwrite -- throwaway harness input in a temp dir
		return "", "", fmt.Errorf("write spec: %w", err)
	}
	return bin, specPath, nil
}

// campaignArgs are the runner flags shared by every campaign invocation
// in these modes.
func campaignArgs(specPath, dir string) []string {
	return []string{
		"-spec", specPath, "-dir", dir,
		"-parallel", "2",
		"-timeout", "2m", "-stall-timeout", "10s",
		"-retries", "2",
		"-progress",
	}
}

// campaignResume proves the campaign runner's crash recovery through real
// process death: a golden uninterrupted sweep, then SIGKILL cycles at
// seeded ledger-progress points with resumes in between, and a final
// resumed report that must equal the golden one byte for byte.
func campaignResume(ctx context.Context, seed int64, kills int) error {
	work, err := os.MkdirTemp("", "chaossoak-campaignresume-*")
	if err != nil {
		return fmt.Errorf("workdir: %w", err)
	}
	defer os.RemoveAll(work)
	bin, specPath, err := buildCampaignBin(ctx, work, false)
	if err != nil {
		return err
	}

	goldenDir := filepath.Join(work, "golden")
	log.Printf("golden uninterrupted campaign...")
	if err := runChild(ctx, bin, campaignArgs(specPath, goldenDir)); err != nil {
		return fmt.Errorf("golden campaign: %w", err)
	}
	golden, err := os.ReadFile(filepath.Join(goldenDir, campaign.ReportFileName))
	if err != nil {
		return fmt.Errorf("read golden report: %w", err)
	}

	killedDir := filepath.Join(work, "killed")
	ledgerPath := filepath.Join(killedDir, campaign.LedgerFileName)
	for k, target := range campaignKillTargets(seed, kills, 4) {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("canceled before kill cycle %d: %w", k, err)
		}
		args := campaignArgs(specPath, killedDir)
		if k > 0 {
			args = append(args, "-resume")
		}
		completed, err := campaignKillCycle(ctx, bin, args, ledgerPath, target)
		if err != nil {
			return fmt.Errorf("kill cycle %d: %w", k, err)
		}
		if completed {
			log.Printf("cycle %d: campaign completed before reaching %d terminal records", k, target)
			continue
		}
		log.Printf("cycle %d: SIGKILLed runner at >= %d terminal ledger records", k, target)
	}

	log.Printf("final resume to completion...")
	if err := runChild(ctx, bin, append(campaignArgs(specPath, killedDir), "-resume")); err != nil {
		return fmt.Errorf("final resume: %w", err)
	}
	resumed, err := os.ReadFile(filepath.Join(killedDir, campaign.ReportFileName))
	if err != nil {
		return fmt.Errorf("read resumed report: %w", err)
	}
	if !bytes.Equal(golden, resumed) {
		return fmt.Errorf("resumed campaign.json differs from golden:\n--- golden ---\n%s\n--- resumed ---\n%s", golden, resumed)
	}
	return nil
}

// campaignKillTargets draws a strictly increasing seeded schedule of
// terminal-record counts (done + quarantine records accumulated in the
// ledger) at which to SIGKILL the runner. Counts stay below the grid size
// so every kill interrupts genuinely unfinished work.
func campaignKillTargets(seed int64, kills, gridSize int) []int {
	rng := rand.New(rand.NewSource(seed))
	targets := make([]int, 0, kills)
	t := 0
	for k := 0; k < kills; k++ {
		headroom := (gridSize - 1 - t) - (kills - 1 - k)
		step := 1
		if headroom > 1 {
			step = 1 + rng.Intn(headroom)
		}
		t += step
		if t > gridSize-1 {
			t = gridSize - 1
		}
		targets = append(targets, t)
	}
	return targets
}

// campaignKillCycle starts one campaign runner and SIGKILLs it once the
// ledger shows target terminal records. completed reports the runner
// finished the whole grid before the kill fired.
func campaignKillCycle(ctx context.Context, bin string, args []string, ledgerPath string, target int) (completed bool, err error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		return false, fmt.Errorf("start runner: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	ticker := time.NewTicker(5 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			<-done // CommandContext already killed the runner
			return false, fmt.Errorf("canceled waiting for %d terminal records: %w", target, ctx.Err())
		case werr := <-done:
			if werr != nil {
				return false, fmt.Errorf("runner died before the kill at %d terminal records: %w\n%s", target, werr, out.Bytes())
			}
			return true, nil
		case <-ticker.C:
			// The read-only recovery path tolerates the live runner's
			// concurrent appends: a half-written tail just ends the prefix.
			recs, rerr := campaign.ReadRecords(ledgerPath)
			if rerr != nil {
				continue
			}
			terminal := 0
			for _, r := range recs {
				if r.Type == campaign.RecDone || r.Type == campaign.RecQuarantine {
					terminal++
				}
			}
			if terminal < target {
				continue
			}
			kerr := cmd.Process.Kill()
			werr := <-done
			if kerr != nil && !errors.Is(kerr, os.ErrProcessDone) {
				return false, fmt.Errorf("SIGKILL runner: %w", kerr)
			}
			// werr is the expected "signal: killed" — or nil when the runner
			// won the race and completed first.
			return werr == nil, nil
		}
	}
}

// campaignSmoke sweeps the chaos grid — one scripted panic, one scripted
// stall, two clean scenarios — and verifies the runner degrades instead of
// dying: exit 0, both chaotic scenarios quarantined with the right class,
// both clean ones completed with outcomes.
func campaignSmoke(ctx context.Context) error {
	work, err := os.MkdirTemp("", "chaossoak-campaignsmoke-*")
	if err != nil {
		return fmt.Errorf("workdir: %w", err)
	}
	defer os.RemoveAll(work)
	bin, specPath, err := buildCampaignBin(ctx, work, true)
	if err != nil {
		return err
	}
	dir := filepath.Join(work, "campaign")
	log.Printf("sweeping the chaos grid (scripted panic + stall)...")
	args := append(campaignArgs(specPath, dir), "-stall-timeout", "5s")
	if err := runChild(ctx, bin, args); err != nil {
		return fmt.Errorf("chaos campaign should exit 0 with a degraded report: %w", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, campaign.ReportFileName))
	if err != nil {
		return fmt.Errorf("read report: %w", err)
	}
	var rep campaign.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("parse report: %w", err)
	}
	if rep.GridSize != 4 || rep.Completed != 2 || rep.Quarantined != 2 || rep.Pending != 0 {
		return fmt.Errorf("report counts: grid=%d completed=%d quarantined=%d pending=%d, want 4/2/2/0",
			rep.GridSize, rep.Completed, rep.Quarantined, rep.Pending)
	}
	wantClass := map[int]string{2: "panic", 3: "stall"}
	for _, sr := range rep.Scenarios {
		want, chaotic := wantClass[sr.Index]
		if chaotic {
			if sr.Status != campaign.StatusQuarantined || sr.FailureClass != want {
				return fmt.Errorf("scenario %d: status=%s class=%q, want quarantined/%s", sr.Index, sr.Status, sr.FailureClass, want)
			}
			log.Printf("scenario %d quarantined as %q — as scripted", sr.Index, sr.FailureClass)
		} else if sr.Status != campaign.StatusCompleted || len(sr.Outcome) == 0 {
			return fmt.Errorf("clean scenario %d: status=%s outcome=%d bytes", sr.Index, sr.Status, len(sr.Outcome))
		}
	}
	if rep.Aggregate == nil {
		return fmt.Errorf("degraded report lost its aggregate over the completed scenarios")
	}
	return nil
}

// killCycle starts one checkpointing child and SIGKILLs it once its
// newest durable snapshot reaches the target minute. completed reports
// that the child finished the whole run before the kill fired.
func killCycle(ctx context.Context, bin string, args []string, ckptDir string, target int) (completed bool, err error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		return false, fmt.Errorf("start child: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	ticker := time.NewTicker(2 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			<-done // CommandContext already killed the child
			return false, fmt.Errorf("canceled waiting for minute %d: %w", target, ctx.Err())
		case werr := <-done:
			if werr != nil {
				return false, fmt.Errorf("child died before the kill at minute %d: %w\n%s", target, werr, out.Bytes())
			}
			return true, nil
		case <-ticker.C:
			m, lerr := checkpoint.LatestMinute(ckptDir)
			if lerr != nil || m < target {
				continue // no snapshot yet, or not far enough
			}
			kerr := cmd.Process.Kill()
			werr := <-done
			if kerr != nil && !errors.Is(kerr, os.ErrProcessDone) {
				return false, fmt.Errorf("SIGKILL child: %w", kerr)
			}
			// werr is the expected "signal: killed" — or nil when the child
			// won the race and completed first.
			return werr == nil, nil
		}
	}
}
