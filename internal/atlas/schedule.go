package atlas

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Outcome is the world's answer to one probe: what the VP's query
// experienced out on the (simulated or real) network.
type Outcome struct {
	Status Status
	// Site and Server identify the responding anycast site/server for
	// successful probes (site is an index into the letter's site list).
	Site   int
	Server int
	RTTms  float64
	// ChaosTXT is the raw identity string carried by the reply; the
	// cleaning stage parses it to detect hijacked VPs. Empty for
	// timeouts.
	ChaosTXT string
}

// World resolves probes. The core evaluator implements this against the
// full event simulation; tests implement it directly; the live prober
// implements it over UDP sockets. A World that can answer a VP's whole walk
// of a letter at once also implements WalkWorld, and the campaign uses that.
type World interface {
	ProbeOutcome(vp *VP, letter byte, minute int) Outcome
}

// ScheduleConfig shapes a measurement campaign.
type ScheduleConfig struct {
	Letters     []byte
	RawLetters  []byte // letters whose raw per-probe data is retained
	StartMinute int
	Minutes     int // campaign length
	BinMinutes  int // analysis bin width (the paper uses 10)
	// IntervalMin is the probing cadence (4 minutes on Atlas).
	IntervalMin int
	// AIntervalMin is A-Root's slower cadence at event time (30 minutes;
	// §2.4.1 — too coarse for event analysis, which is why the paper
	// drops A from most figures).
	AIntervalMin int

	// Workers is the number of VP shards run concurrently; <= 0 selects
	// GOMAXPROCS. The dataset is identical for every worker count.
	Workers int
	// Progress, when set, receives (VPs completed, total VPs) as the
	// campaign advances. Calls are serialized but may come from any shard
	// goroutine.
	Progress func(done, total int)
}

// DefaultScheduleConfig covers the two event days for all 13 letters with
// raw retention for K-Root (the letter the paper's server-level and raster
// analyses use).
func DefaultScheduleConfig() ScheduleConfig {
	return ScheduleConfig{
		Letters:      []byte("ABCDEFGHIJKLM"),
		RawLetters:   []byte("K"),
		StartMinute:  0,
		Minutes:      48 * 60,
		BinMinutes:   10,
		IntervalMin:  4,
		AIntervalMin: 30,
	}
}

// Run executes the probing campaign and returns the cleaned dataset:
// pre-4570-firmware VPs are dropped outright, and VPs whose replies match
// no known letter pattern at implausibly short RTTs are flagged as hijacked
// and dropped (§2.4.1). It is RunContext without cancellation.
func Run(p *Population, w World, cfg ScheduleConfig) *Dataset {
	d, _ := RunContext(context.Background(), p, w, cfg)
	return d
}

// RunContext executes the probing campaign under a context.
//
// VPs probe independently, so the campaign fans the population out over
// cfg.Workers shards (GOMAXPROCS when unset), each walking a contiguous
// VP range; every VP's cells live in a disjoint, pre-sized dataset
// segment, making the sharding race-free and the output byte-identical to
// a sequential run. World implementations must be safe for concurrent
// reads. On cancellation the partial dataset is discarded and the wrapped
// context error is returned.
func RunContext(ctx context.Context, p *Population, w World, cfg ScheduleConfig) (*Dataset, error) {
	bins := cfg.Minutes / cfg.BinMinutes
	d := NewDataset(cfg.Letters, cfg.RawLetters, p.N(), cfg.StartMinute, cfg.BinMinutes, bins, cfg.IntervalMin)
	if ctx == nil {
		ctx = context.Background()
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > p.N() {
		workers = p.N()
	}
	if workers < 1 {
		workers = 1
	}
	var (
		wg         sync.WaitGroup
		done       atomic.Int64
		progressMu sync.Mutex
	)
	walker, ok := w.(WalkWorld)
	if !ok {
		walker = perProbe{w}
	}
	per := (len(p.VPs) + workers - 1) / workers
	for shard := 0; shard < workers; shard++ {
		lo := shard * per
		hi := lo + per
		if hi > len(p.VPs) {
			hi = len(p.VPs)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			var walk Walk // the shard's outcome buffer, reused by every walk
			for i := lo; i < hi; i++ {
				if ctx.Err() != nil {
					return
				}
				runVP(&p.VPs[i], walker, cfg, d, &walk)
				if cfg.Progress != nil {
					n := int(done.Add(1))
					progressMu.Lock()
					cfg.Progress(n, p.N())
					progressMu.Unlock()
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("atlas: campaign canceled: %w", err)
	}
	// Intern the raw (site, server) identities now that recording is done;
	// the canonical ordering makes the table worker-count independent.
	d.Seal()
	return d, nil
}

// runVP executes one vantage point's whole campaign: for each letter it has
// the world answer the VP's walk into the shard's buffer and then cleans and
// records the buffer's probes in one loop (rowWriter.fold).
//
//repolint:hot
func runVP(vp *VP, w WalkWorld, cfg ScheduleConfig, d *Dataset, walk *Walk) {
	if vp.Firmware < MinFirmware {
		d.Exclude(vp.ID, "firmware")
		return
	}
	hijackEvidence := false
	end := cfg.StartMinute + cfg.Minutes
	for _, letter := range cfg.Letters {
		interval := cfg.IntervalMin
		if letter == 'A' && cfg.AIntervalMin > 0 {
			interval = cfg.AIntervalMin
		}
		first := cfg.StartMinute + vp.Phase%interval
		row, ok := d.rowWriter(vp.ID, letter, first, interval)
		if !ok {
			continue
		}
		n := 0
		if first < end {
			n = (end - first + interval - 1) / interval
		}
		walk.Reset(n)
		w.ProbeWalk(vp, letter, first, interval, walk)
		if row.fold(walk, letter) {
			hijackEvidence = true
		}
	}
	if hijackEvidence {
		d.Exclude(vp.ID, "hijack")
	}
}
