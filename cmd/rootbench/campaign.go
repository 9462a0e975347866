package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/rootevent/anycastddos/internal/analysis"
	"github.com/rootevent/anycastddos/internal/campaign"
	"github.com/rootevent/anycastddos/internal/core"
	"github.com/rootevent/anycastddos/internal/stats"
)

// gridSpec builds the campaign of one unit: the axes of
// bench/campaign_grid.json crossed with a single seed, seed+i for unit i,
// so a run of four units sweeps the grid over seeds seed..seed+3.
func gridSpec(data []byte, seed int64, i int, smoke bool) (*campaign.Spec, error) {
	spec, err := campaign.ParseSpec(data)
	if err != nil {
		return nil, err
	}
	spec.Axes.Seeds = []int64{seed + int64(i)}
	if smoke {
		spec.VPs, spec.Minutes = 30, 120
		spec.Axes.Schedules = spec.Axes.Schedules[:1]
		spec.Axes.Intensities = spec.Axes.Intensities[:1]
		spec.Axes.Defenses = spec.Axes.Defenses[:1]
	}
	return spec, spec.Validate()
}

func readGrid() ([]byte, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	return os.ReadFile(filepath.Join(root, "bench", "campaign_grid.json"))
}

// lifecycle is the RunnerConfig.Logf hook of traced units: when each
// scenario completed, and how many attempts failed.
type lifecycle struct {
	mu        sync.Mutex
	completed map[string]time.Time
	retries   int
}

func (l *lifecycle) logf(format string, args ...any) {
	now := time.Now()
	line := fmt.Sprintf(format, args...)
	l.mu.Lock()
	defer l.mu.Unlock()
	id, rest, _ := strings.Cut(line, ": ")
	switch {
	case strings.HasPrefix(rest, "completed"):
		l.completed[id] = now
	case strings.Contains(rest, "failed"):
		l.retries++
	}
}

// workloadCampaignGrid sweeps a 36-scenario grid through the campaign
// runner, two scenario child processes at a time. One operation is one
// scenario brought to a terminal state.
func workloadCampaignGrid(p params) (*result, error) {
	if p.CampaignBin == "" {
		return nil, fmt.Errorf("campaign_grid needs -campaign-bin (the parent builds cmd/campaign)")
	}
	grid, err := readGrid()
	if err != nil {
		return nil, err
	}
	r, tr, setup := newResult(), newTracer(p.Trace), &setupTimer{}
	var scenarioMs []float64
	var childCPU float64
	retries := 0

	sweep := func(u *unit, spec *campaign.Spec, dir string) (*campaign.Report, error) {
		rc := campaign.RunnerConfig{
			Dir: dir, Bin: p.CampaignBin, BaseArgs: []string{"-exec-scenario"},
			Parallel: 2, Seed: p.Seed,
		}
		var life *lifecycle
		if u.Tr != nil {
			life = &lifecycle{completed: map[string]time.Time{}}
			rc.Logf = life.logf
		}
		usr0, sys0 := cpuTimes(syscall.RUSAGE_CHILDREN)
		runSpan := u.Tr.begin(u.Span, "campaign.run")
		rep, err := campaign.Run(context.Background(), spec, rc)
		u.Tr.end(runSpan)
		if err != nil {
			return nil, err
		}
		if err := u.Tr.do(u.Span, "campaign.report", func() error {
			return campaign.WriteReport(filepath.Join(dir, campaign.ReportFileName), rep)
		}); err != nil {
			return nil, err
		}
		if life != nil {
			usr1, sys1 := cpuTimes(syscall.RUSAGE_CHILDREN)
			childCPU += usr1 - usr0 + sys1 - sys0
			retries += life.retries
			// A scenario's span runs from the runner writing its
			// scenario.json to the runner logging its completion.
			for id, done := range life.completed {
				fi, err := os.Stat(filepath.Join(dir, "scenarios", id, campaign.ScenarioFileName))
				if err != nil {
					return nil, err
				}
				u.Tr.add(runSpan, "campaign.scenario", fi.ModTime(), done)
				scenarioMs = append(scenarioMs, done.Sub(fi.ModTime()).Seconds()*1e3)
			}
		}
		return rep, nil
	}

	// Discarded warm-up: the smoke-sized grid, which also pages in the child.
	warmDir, err := os.MkdirTemp(p.Out, "campaign-warm-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(warmDir)
	warmSpec, err := gridSpec(grid, p.Seed, 0, true)
	if err == nil {
		_, err = sweep(&unit{}, warmSpec, warmDir)
	}
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	var firstSpec *campaign.Spec
	st, err := runUnits(p, tr, true, func(u *unit) (int64, error) {
		var spec *campaign.Spec
		var dir string
		if err := setup.time(func() (err error) {
			if spec, err = gridSpec(grid, p.Seed, u.I, p.Smoke); err != nil {
				return err
			}
			dir, err = os.MkdirTemp(p.Out, "campaign-")
			return err
		}); err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		u.start()
		rep, err := sweep(u, spec, dir)
		if err != nil {
			return 0, err
		}
		u.stop()

		r.Attempted += int64(rep.GridSize)
		r.Failed += int64(rep.GridSize - rep.Completed)
		r.verify("campaign_grid.all_completed", rep.Completed == rep.GridSize && rep.Quarantined == 0,
			"%d of %d scenarios completed, %d quarantined", rep.Completed, rep.GridSize, rep.Quarantined)
		if u.I == 0 {
			firstSpec = spec
			body, err := os.ReadFile(filepath.Join(dir, campaign.ReportFileName))
			if err != nil {
				return 0, err
			}
			sum := sha256.Sum256(body)
			r.Fingerprints["campaign_json_sha256"] = hex.EncodeToString(sum[:])
			r.Fingerprints["spec_digest"] = spec.Digest()
		}
		return int64(rep.GridSize), nil
	})
	if err != nil {
		return nil, err
	}
	if !p.Trace {
		st.report(r, false)
		setup.report(r)
		return r, nil
	}
	st.report(r, true)
	units := float64(tr.unitCount())
	r.set("campaign.run_s", tr.meanSeconds("campaign.run"), "s")
	r.set("campaign.report_ms", tr.meanSeconds("campaign.report")*1e3, "ms")
	r.set("campaign.scenario_p50_ms", stats.Quantile(scenarioMs, 0.50), "ms")
	r.set("campaign.scenario_p90_ms", stats.Quantile(scenarioMs, 0.90), "ms")
	r.Samples["campaign.scenario_p50_ms"] = len(scenarioMs)
	r.set("campaign.child_cpu_s", childCPU/units, "s")
	r.set("campaign.retries", float64(retries), "count")

	// Scenario 0 in this process: what a scenario costs without a spawn.
	sc := firstSpec.Expand()[0]
	inproc, err := tr.timed("campaign.engine_inproc", func() error {
		cfg, opts, err := sc.EngineConfig()
		if err != nil {
			return err
		}
		start := time.Now()
		ev, err := core.NewEvaluator(cfg, opts...)
		if err != nil {
			return err
		}
		r.set("core.new_evaluator_ms", time.Since(start).Seconds()*1e3, "ms")
		if err := ev.Run(); err != nil {
			return err
		}
		d, err := ev.Measure()
		if err != nil {
			return err
		}
		_, err = analysis.New(ev, d).Outcome(analysis.DefaultOutcomeConfig(sc.Seed))
		return err
	})
	if err != nil {
		return nil, err
	}
	r.set("campaign.engine_inproc_ms", inproc*1e3, "ms")
	r.set("campaign.spawn_overhead_ms", stats.Quantile(scenarioMs, 0.50)-inproc*1e3, "ms")
	if err := durabilityLayers(p, r, tr); err != nil {
		return nil, err
	}
	r.LayerSelfS = layerSelfSeconds(tr.spans)
	return r, tr.write(p.Out, "campaign_grid")
}
