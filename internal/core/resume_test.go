package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/rootevent/anycastddos/internal/attack"
	"github.com/rootevent/anycastddos/internal/checkpoint"
	"github.com/rootevent/anycastddos/internal/faults"
)

// resumeSchedule compresses the paper's two-event structure into the
// first 120 minutes, so short resume-equivalence runs still exercise
// withdrawals, flaps, retries, and RSSAC attack accounting.
func resumeSchedule() *attack.Schedule {
	return &attack.Schedule{
		Name: "resume-test",
		Events: []attack.Event{
			{Index: 1, Name: "event1", StartMinute: 20, EndMinute: 60,
				QName: "www.336901.com", QueryBytes: 44, ResponseBytes: 485, PerLetterQPS: 5e6},
			{Index: 2, Name: "event2", StartMinute: 80, EndMinute: 110,
				QueryBytes: 30, ResponseBytes: 485, PerLetterQPS: 4e6},
		},
		Spared: map[byte]bool{'L': true},
	}
}

// resumeFaultPlan covers every fault kind inside the 120-minute window.
func resumeFaultPlan() *faults.Plan {
	return &faults.Plan{
		Name: "resume-faults",
		Events: []faults.Event{
			{Kind: faults.SiteOutage, Start: 15, Duration: 30, Letter: 'K', Site: 0},
			{Kind: faults.LinkFlap, Start: 40, Duration: 25, Letter: 'E', Site: faults.AnySite, Seed: 3},
			{Kind: faults.CapacityDegrade, Start: 25, Duration: 50, Letter: 'B', Site: faults.AnySite, Severity: 0.6},
			{Kind: faults.PacketLossBurst, Start: 70, Duration: 30, Letter: 'A', Site: faults.AnySite, Severity: 0.3},
			{Kind: faults.VPChurn, Start: 30, Duration: 60, Severity: 0.2, Seed: 5},
			{Kind: faults.MonitorGap, Start: 50, Duration: 40, Letter: 'K'},
		},
	}
}

func resumeConfig(seed int64) Config {
	cfg := tinyConfig(seed)
	cfg.Minutes = 120
	return cfg
}

// fingerprintEv captures a completed evaluator's full output surface.
func fingerprintEv(t *testing.T, ev *Evaluator) runFingerprint {
	t.Helper()
	d, err := ev.Measure()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	fp := runFingerprint{
		datasetHash: sha256.Sum256(buf.Bytes()),
		updates:     ev.Collector.Updates(),
		rssacK:      ev.RSSACReports('K'),
	}
	s, err := siteRouteSeries(ev, 'K', 0)
	if err != nil {
		t.Fatal(err)
	}
	fp.routesK0 = s.Values
	for _, nls := range ev.NLSeries {
		fp.nl = append(fp.nl, nls.Values)
	}
	return fp
}

// uninterruptedFingerprint runs the resume-test configuration start to
// finish with no checkpointing at all — the golden output every
// kill/resume sequence must reproduce byte for byte.
func uninterruptedFingerprint(t *testing.T, seed int64, workers int, plan *faults.Plan) runFingerprint {
	t.Helper()
	opts := []Option{WithWorkers(workers), WithSchedule(resumeSchedule())}
	if plan != nil {
		opts = append(opts, WithFaults(plan))
	}
	ev, err := NewEvaluator(resumeConfig(seed), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Run(); err != nil {
		t.Fatal(err)
	}
	return fingerprintEv(t, ev)
}

func compareFingerprints(t *testing.T, label string, got, want runFingerprint) {
	t.Helper()
	if got.datasetHash != want.datasetHash {
		t.Errorf("%s: dataset differs from uninterrupted run", label)
	}
	if !reflect.DeepEqual(got.updates, want.updates) {
		t.Errorf("%s: BGP update stream differs", label)
	}
	if !reflect.DeepEqual(got.rssacK, want.rssacK) {
		t.Errorf("%s: RSSAC reports differ", label)
	}
	if !reflect.DeepEqual(got.routesK0, want.routesK0) {
		t.Errorf("%s: route series differs", label)
	}
	if !reflect.DeepEqual(got.nl, want.nl) {
		t.Errorf("%s: .nl series differs", label)
	}
}

// TestResumeEquivalence is the tentpole's acceptance test: a run that is
// killed (canceled) and checkpoint-restored at every 10th epoch must end
// with output byte-identical to the uninterrupted run — at 1 and 4
// workers, with and without an injected fault plan. The first segment
// starts from an empty checkpoint directory (the fresh-run fallback), and
// every later segment restores from the snapshot the previous kill left
// behind.
func TestResumeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("many engine runs")
	}
	const seed = 7
	for _, workers := range []int{1, 4} {
		for _, faulted := range []bool{false, true} {
			var plan *faults.Plan
			name := "plain"
			if faulted {
				plan = resumeFaultPlan()
				name = "faulted"
			}
			golden := uninterruptedFingerprint(t, seed, workers, plan)
			dir := t.TempDir()
			cfg := resumeConfig(seed)
			baseOpts := func() []Option {
				opts := []Option{
					WithWorkers(workers),
					WithSchedule(resumeSchedule()),
					WithCheckpoint(dir, 10),
				}
				if plan != nil {
					opts = append(opts, WithFaults(plan))
				}
				return opts
			}
			// Kill at minute 10, 20, ..., 110: each segment runs until the
			// progress callback cancels it right after that minute's
			// checkpoint is durable.
			for stop := 10; stop < cfg.Minutes; stop += 10 {
				ctx, cancel := context.WithCancel(context.Background())
				opts := append(baseOpts(), WithContext(ctx), WithProgress(func(p Progress) {
					if p.Stage == StageRun && p.Done == stop {
						cancel()
					}
				}))
				_, err := ResumeRun(dir, cfg, opts...)
				cancel()
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("%s workers=%d stop=%d: err = %v, want context.Canceled", name, workers, stop, err)
				}
				if m, err := checkpoint.LatestMinute(dir); err != nil || m != stop {
					t.Fatalf("%s workers=%d stop=%d: latest checkpoint = %d, %v", name, workers, stop, m, err)
				}
			}
			// Final segment: resume from minute 110 and finish.
			ev, err := ResumeRun(dir, cfg, baseOpts()...)
			if err != nil {
				t.Fatalf("%s workers=%d: final resume: %v", name, workers, err)
			}
			compareFingerprints(t, name, fingerprintEv(t, ev), golden)
		}
	}
	// The fault plan must actually change the output, or the faulted half
	// of the matrix proves nothing.
	if uninterruptedFingerprint(t, seed, 1, nil).datasetHash ==
		uninterruptedFingerprint(t, seed, 1, resumeFaultPlan()).datasetHash {
		t.Error("resume fault plan left the dataset unchanged")
	}
}

// TestResumeRunFreshFallback is the guards-style table test: ResumeRun on
// a directory with no usable checkpoint — missing, empty, holding only a
// format-version-1 store's debris, or a foreign file — must degrade to a
// fresh full run, not fail.
func TestResumeRunFreshFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("several engine runs")
	}
	const seed = 5
	golden := uninterruptedFingerprint(t, seed, 2, nil)
	cases := []struct {
		name string
		dir  func(t *testing.T) string
	}{
		{"missing dir", func(t *testing.T) string {
			return filepath.Join(t.TempDir(), "never-created")
		}},
		{"empty dir", func(t *testing.T) string {
			return t.TempDir()
		}},
		{"garbage manifest only", func(t *testing.T) string {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte("{not json"), 0o644); err != nil {
				t.Fatal(err)
			}
			return dir
		}},
		{"corrupt snapshots only", func(t *testing.T) string {
			dir := t.TempDir()
			for _, name := range []string{"snap-000010.ckpt", "snap-000020.ckpt"} {
				if err := os.WriteFile(filepath.Join(dir, name), []byte("torn"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			return dir
		}},
		{"foreign file under the log's name", func(t *testing.T) string {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, checkpoint.LogName), []byte("definitely not a checkpoint log"), 0o644); err != nil {
				t.Fatal(err)
			}
			return dir
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ev, err := ResumeRun(tc.dir(t), resumeConfig(seed),
				WithWorkers(2), WithSchedule(resumeSchedule()))
			if err != nil {
				t.Fatalf("fallback fresh run failed: %v", err)
			}
			compareFingerprints(t, tc.name, fingerprintEv(t, ev), golden)
		})
	}
}

// runCheckpointedUntil runs the resume config, canceling right after the
// checkpoint at minute `stop` commits, and returns the checkpoint dir.
func runCheckpointedUntil(t *testing.T, seed int64, stop int, dir string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := ResumeRun(dir, resumeConfig(seed),
		WithWorkers(2), WithSchedule(resumeSchedule()), WithCheckpoint(dir, 10),
		WithContext(ctx), WithProgress(func(p Progress) {
			if p.Stage == StageRun && p.Done == stop {
				cancel()
			}
		}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestResumeTornSnapshotFallsBack: when the newest checkpoint is torn on
// disk, resume silently falls back to the previous good one and still
// finishes byte-identical.
func TestResumeTornSnapshotFallsBack(t *testing.T) {
	if testing.Short() {
		t.Skip("engine runs")
	}
	const seed = 5
	golden := uninterruptedFingerprint(t, seed, 2, nil)
	dir := t.TempDir()
	runCheckpointedUntil(t, seed, 30, dir)
	// Tear the newest record (minute 30); minute 20 remains good.
	data := readLog(t, dir)
	recs := logRecords(t, data)
	newest := recs[len(recs)-1]
	if err := os.WriteFile(filepath.Join(dir, checkpoint.LogName), data[:newest.start+(newest.end-newest.start)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	ev, err := ResumeRun(dir, resumeConfig(seed),
		WithWorkers(2), WithSchedule(resumeSchedule()), WithCheckpoint(dir, 10))
	if err != nil {
		t.Fatal(err)
	}
	compareFingerprints(t, "torn-fallback", fingerprintEv(t, ev), golden)
}

// TestResumeRunConfigMismatch: a snapshot written under one configuration
// must refuse to resume under another.
func TestResumeRunConfigMismatch(t *testing.T) {
	if testing.Short() {
		t.Skip("engine run")
	}
	dir := t.TempDir()
	runCheckpointedUntil(t, 5, 20, dir)
	_, err := ResumeRun(dir, resumeConfig(6),
		WithWorkers(2), WithSchedule(resumeSchedule()), WithCheckpoint(dir, 10))
	if !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("err = %v, want ErrSnapshotMismatch", err)
	}
	// A different fault plan is a different run, too.
	_, err = ResumeRun(dir, resumeConfig(5),
		WithWorkers(2), WithSchedule(resumeSchedule()), WithFaults(resumeFaultPlan()))
	if !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("fault plan mismatch: err = %v, want ErrSnapshotMismatch", err)
	}
}
