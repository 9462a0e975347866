package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/rootevent/anycastddos/internal/checkpoint"
)

// logHeaderLen is the checkpoint log's 8-byte magic plus version byte.
const logHeaderLen = 9

// logRecord locates one record in a checkpoint log's bytes: a 4-byte
// length prefix, the payload, and the payload's SHA-256.
type logRecord struct{ start, end int }

// logRecords walks the framing of a well-formed log.
func logRecords(t *testing.T, data []byte) []logRecord {
	t.Helper()
	var recs []logRecord
	for off := logHeaderLen; off < len(data); {
		end := off + 4 + int(binary.LittleEndian.Uint32(data[off:])) + sha256.Size
		if end > len(data) {
			t.Fatalf("record at offset %d runs past the end of the %d-byte log", off, len(data))
		}
		recs = append(recs, logRecord{off, end})
		off = end
	}
	return recs
}

func readLog(t *testing.T, dir string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, checkpoint.LogName))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCheckpointLogCorruption is the log's damage contract, on a log the
// engine wrote (records ending at minutes 10..60): whatever happens to the
// file, LoadLatest lands on the end of the longest valid contiguous record
// prefix — exactly — and ResumeRun from there finishes byte-identical to
// the uninterrupted run. Damage costs recomputation, never correctness.
func TestCheckpointLogCorruption(t *testing.T) {
	if testing.Short() {
		t.Skip("engine runs")
	}
	const seed = 5
	golden := uninterruptedFingerprint(t, seed, 2, nil)
	src := t.TempDir()
	runCheckpointedUntil(t, seed, 60, src)
	good := readLog(t, src)
	recs := logRecords(t, good)
	if len(recs) != 6 {
		t.Fatalf("log holds %d records, want 6", len(recs))
	}
	last := recs[5]
	flip := func(off int) []byte {
		out := append([]byte(nil), good...)
		out[off] ^= 0x40
		return out
	}

	type damage struct {
		name string
		data []byte // nil: no log file at all
		want int    // minute LoadLatest lands on; 0 = ErrNoSnapshot
		err  error  // set when LoadLatest must fail some other way
	}
	cases := []damage{
		{"intact", good, 60, nil},
		{"missing log", nil, 0, nil},
		{"empty file", []byte{}, 0, nil},
		{"torn header", good[:logHeaderLen-2], 0, nil},
		{"header only", good[:logHeaderLen], 0, nil},
		{"foreign magic", append([]byte("NOTACKPT"), good[8:]...), 0, nil},
		{"format version 1", append(append([]byte(nil), good[:8]...), append([]byte{1}, good[9:]...)...), 0, checkpoint.ErrVersion},
		{"bit flip in the header magic", flip(3), 0, nil},
		{"bit flip in the first record", flip(recs[0].start + 4 + 100), 0, nil},
		{"bit flip in a middle record's length", flip(recs[2].start + 1), 20, nil},
		{"bit flip in a middle record's payload", flip((recs[2].start + recs[2].end) / 2), 20, nil},
		{"bit flip in a middle record's checksum", flip(recs[2].end - 1), 20, nil},
		{"bit flip in the last record", flip((last.start + last.end) / 2), 50, nil},
		{"middle record dropped", append(append([]byte(nil), good[:recs[2].start]...), good[recs[2].end:]...), 20, nil},
		{"first record dropped", append(append([]byte(nil), good[:logHeaderLen]...), good[recs[0].end:]...), 0, nil},
		{"record repeated", append(append([]byte(nil), good[:recs[3].end]...), good[recs[3].start:]...), 40, nil},
		{"garbage appended", append(append([]byte(nil), good...), "trailing junk that is no record"...), 60, nil},
	}

	// Every truncation of the last record lands on minute 50. Checked
	// through LoadLatest at a prime stride plus the framing boundaries (the
	// checkpoint package's own test cuts a small log at every byte); the
	// resumes below take the boundaries.
	boundaries := []int{last.start, last.start + 1, last.start + 4, last.end - sha256.Size, last.end - 1}
	cuts := append([]int(nil), boundaries...)
	for n := last.start; n < last.end; n += 97 {
		cuts = append(cuts, n)
	}
	cut := t.TempDir()
	for _, n := range cuts {
		if err := os.WriteFile(filepath.Join(cut, checkpoint.LogName), good[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if snap, err := checkpoint.LoadLatest(cut); err != nil || snap.Minute != 50 {
			t.Fatalf("log truncated to %d of %d bytes: LoadLatest = %v, %v, want minute 50", n, len(good), snap, err)
		}
	}
	for _, n := range boundaries {
		cases = append(cases, damage{"truncated inside the last record", good[:n], 50, nil})
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if tc.data != nil {
				if err := os.WriteFile(filepath.Join(dir, checkpoint.LogName), tc.data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			snap, err := checkpoint.LoadLatest(dir)
			switch {
			case tc.err != nil:
				if !errors.Is(err, tc.err) {
					t.Fatalf("LoadLatest err = %v, want %v", err, tc.err)
				}
				if _, err := ResumeRun(dir, resumeConfig(seed), WithWorkers(2), WithSchedule(resumeSchedule())); !errors.Is(err, tc.err) {
					t.Fatalf("ResumeRun err = %v, want %v", err, tc.err)
				}
				return
			case tc.want == 0:
				if !errors.Is(err, checkpoint.ErrNoSnapshot) {
					t.Fatalf("LoadLatest = %v, %v, want ErrNoSnapshot", snap, err)
				}
			case err != nil || snap.Minute != tc.want || snap.From != 0:
				t.Fatalf("LoadLatest = %v, %v, want the full state at minute %d", snap, err, tc.want)
			}
			// Resume with checkpointing on, so the damaged log is also the
			// one being continued (or, from minute 0, replaced).
			started := -1
			ev, err := ResumeRun(dir, resumeConfig(seed), WithWorkers(2), WithSchedule(resumeSchedule()),
				WithCheckpoint(dir, 10), WithProgress(func(p Progress) {
					if p.Stage == StageRun && started < 0 {
						started = p.Done - 1
					}
				}))
			if err != nil {
				t.Fatal(err)
			}
			if started != tc.want {
				t.Errorf("resumed at minute %d, want %d", started, tc.want)
			}
			compareFingerprints(t, tc.name, fingerprintEv(t, ev), golden)
			if m, err := checkpoint.LatestMinute(dir); err != nil || m != 110 {
				t.Errorf("after the resumed run the log ends at minute %d (%v), want 110", m, err)
			}
			if snap, err := checkpoint.LoadLatest(dir); err != nil || snap.Minute != 110 {
				t.Errorf("after the resumed run LoadLatest = %v, %v, want minute 110", snap, err)
			}
		})
	}
}

// TestFreshRunReplacesUsedDirectory: a run that starts at minute 0 owns its
// checkpoint directory, whatever an earlier run left there. (With the
// format-version-1 store, a fresh run into a directory holding later
// snapshots pruned each of its own as it wrote it.)
func TestFreshRunReplacesUsedDirectory(t *testing.T) {
	if testing.Short() {
		t.Skip("engine runs")
	}
	const seed = 5
	golden := uninterruptedFingerprint(t, seed, 2, nil)
	for _, leftover := range []struct {
		name string
		seed int64
	}{{"same config", seed}, {"different config", seed + 1}} {
		t.Run(leftover.name, func(t *testing.T) {
			dir := t.TempDir()
			runCheckpointedUntil(t, leftover.seed, 90, dir)
			if leftover.seed != seed {
				_, err := ResumeRun(dir, resumeConfig(seed), WithWorkers(2), WithSchedule(resumeSchedule()), WithCheckpoint(dir, 10))
				if !errors.Is(err, ErrSnapshotMismatch) {
					t.Fatalf("resume into another configuration's log: err = %v, want ErrSnapshotMismatch", err)
				}
			}
			// A fresh run — Run, not ResumeRun — killed right after its
			// minute-30 checkpoint.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ev, err := NewEvaluator(resumeConfig(seed), WithWorkers(2), WithSchedule(resumeSchedule()),
				WithCheckpoint(dir, 10), WithContext(ctx), WithProgress(func(p Progress) {
					if p.Stage == StageRun && p.Done == 30 {
						cancel()
					}
				}))
			if err != nil {
				t.Fatal(err)
			}
			if err := ev.Run(); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			snap, err := checkpoint.LoadLatest(dir)
			if err != nil || snap.Minute != 30 {
				t.Fatalf("after the fresh run's minute-30 checkpoint LoadLatest = %v, %v", snap, err)
			}
			resumed, err := ResumeRun(dir, resumeConfig(seed), WithWorkers(2), WithSchedule(resumeSchedule()), WithCheckpoint(dir, 10))
			if err != nil {
				t.Fatal(err)
			}
			compareFingerprints(t, leftover.name, fingerprintEv(t, resumed), golden)
		})
	}
}

// TestCanceledRunDoesNotCheckpoint: the supervisor abandons a wedged attempt
// on the promise that a canceled engine writes nothing more, and the next
// attempt appends to the same log. A letter step that outlasts the
// cancellation on a checkpoint minute must therefore not reach the append.
func TestCanceledRunDoesNotCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("engine run")
	}
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var sizeAtCancel int64
	var once sync.Once
	// The heartbeat runs on the letter's worker, inside minute 19's step —
	// after the loop-top context check, before the minute-20 checkpoint.
	hb := func(letter byte, minute int) {
		if minute == 19 {
			once.Do(func() {
				info, err := os.Stat(filepath.Join(dir, checkpoint.LogName))
				if err != nil {
					t.Error(err)
					return
				}
				sizeAtCancel = info.Size()
				cancel()
			})
		}
	}
	ev, err := NewEvaluator(resumeConfig(5), WithWorkers(2), WithSchedule(resumeSchedule()),
		WithCheckpoint(dir, 10), WithContext(ctx), WithHeartbeat(hb))
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Run(); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	info, err := os.Stat(filepath.Join(dir, checkpoint.LogName))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != sizeAtCancel {
		t.Errorf("log grew from %d to %d bytes after the cancellation", sizeAtCancel, info.Size())
	}
	if m, err := checkpoint.LatestMinute(dir); err != nil || m != 10 {
		t.Errorf("log ends at minute %d (%v), want 10", m, err)
	}
}

// TestCheckpointLogSizeIsStateNotHistory pins the point of the log: each
// checkpoint costs its interval. After N checkpoints the log is no larger
// than one full encoding of the final state plus a fixed overhead per
// record, and a late record is no larger than an early one but for the
// epochs and updates its own interval added.
func TestCheckpointLogSizeIsStateNotHistory(t *testing.T) {
	if testing.Short() {
		t.Skip("engine run")
	}
	dir := t.TempDir()
	cfg := resumeConfig(5)
	cfg.Minutes = 720
	ev, err := NewEvaluator(cfg, WithWorkers(2), WithSchedule(resumeSchedule()), WithFaults(resumeFaultPlan()), WithCheckpoint(dir, 10))
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Run(); err != nil {
		t.Fatal(err)
	}
	data := readLog(t, dir)
	recs := logRecords(t, data)
	if len(recs) != 71 {
		t.Fatalf("%d records, want 71", len(recs))
	}
	final, err := checkpoint.LoadLatest(dir)
	if err != nil || final.Minute != 710 {
		t.Fatalf("LoadLatest = %v, %v", final, err)
	}
	// What a record holds that does not grow with its interval: framing,
	// [From, Minute), digest, and per letter the routers, the two
	// announcement vectors and a count in front of every series.
	overhead := 4 + sha256.Size + 2*binary.MaxVarintLen64 + len(final.ConfigDigest) + 3*binary.MaxVarintLen64
	uplinks := 0
	for i := range final.Letters {
		l := &final.Letters[i]
		uplinks = max(uplinks, len(l.Active))
		overhead += 2 + 9*len(l.Routers) + len(l.Active) + len(l.EffActive) + binary.MaxVarintLen64*(5+3*len(l.Loss)+4)
	}
	overhead += binary.MaxVarintLen64 * len(final.CityExcess)
	full := len(checkpoint.Encode(final))
	if limit := full + len(recs)*overhead; len(data) > limit {
		t.Errorf("log of %d records is %d bytes: one full encoding of the final state is %d, + %d per record allows %d",
			len(recs), len(data), full, overhead, limit)
	}
	// The record ending at minute 700 against the one ending at minute 100:
	// it may be larger only by the epochs and updates of (690, 700].
	extra := 0
	for _, u := range final.Updates {
		if u.Minute >= 690 && u.Minute <= 700 {
			extra += 17
		}
	}
	for i := range final.Letters {
		for _, ep := range final.Letters[i].Epochs {
			if ep.Start >= 690 && ep.Start <= 700 {
				extra += 4 + binary.MaxVarintLen64 + uplinks
			}
		}
	}
	size := func(minute int) int { r := recs[minute/10-1]; return r.end - r.start }
	if early, late := size(100), size(700); late > early+extra {
		t.Errorf("record at minute 700 is %d bytes, the one at minute 100 %d (+%d allowed for its own epochs and updates)", late, early, extra)
	}
}
