package main

import (
	"bytes"
	"compress/gzip"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/rootevent/anycastddos/internal/core"
)

func quietLog(t *testing.T) {
	t.Helper()
	log.SetOutput(io.Discard)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
}

// checkProfile fails unless path holds a complete pprof profile: a gzip
// stream that decompresses to its end into a non-empty protobuf.
func checkProfile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("%s (%d bytes) is not a gzip stream: %v", path, len(data), err)
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("%s is truncated: %v", path, err)
	}
	if len(body) == 0 {
		t.Fatalf("%s decompresses to nothing", path)
	}
}

// TestShortHorizonRunsPerEventFigures is `rootevent -small -minutes 1440`:
// the horizon ends before the Dec 1 event, so the per-event outputs cover
// the one simulated event instead of dying on the other, and the CPU
// profile is complete.
func TestShortHorizonRunsPerEventFigures(t *testing.T) {
	quietLog(t)
	dir := t.TempDir()
	prof := filepath.Join(dir, "p.out")
	err := run([]string{"-small", "-minutes", "1440", "-only", "table3,fig10,fig11", "-out", dir, "-cpuprofile", prof})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	fig10, err := os.ReadFile(filepath.Join(dir, "fig10.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(fig10), "Event 1:") || strings.Contains(string(fig10), "Event 2:") {
		t.Errorf("fig10 should report event 1 only:\n%s", fig10)
	}
	fig11, err := os.ReadFile(filepath.Join(dir, "fig11.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(fig11), "event 1 behaviour groups") || strings.Contains(string(fig11), "event 2 behaviour groups") {
		t.Errorf("fig11 should classify event 1 only:\n%.400s", fig11)
	}
	checkProfile(t, prof)
}

// TestFailedRunFlushesProfile: a run that fails after profiling started
// returns its error to main with the CPU profile stopped and closed, where
// log.Fatal used to leave a 0-byte file.
func TestFailedRunFlushesProfile(t *testing.T) {
	quietLog(t)
	dir := t.TempDir()
	prof, heap := filepath.Join(dir, "p.out"), filepath.Join(dir, "heap.out")
	err := run([]string{"-schedule", "bogus", "-out", dir, "-cpuprofile", prof, "-memprofile", heap})
	if err == nil || !strings.Contains(err.Error(), "unknown -schedule") {
		t.Fatalf("run = %v, want the unknown-schedule error", err)
	}
	checkProfile(t, prof)
	checkProfile(t, heap)
}

// TestRejectedFlagsExitUsage: a command line the flag package rejects
// exits ExitUsage, not the ExitPanic a parent supervisor would retry, and
// -h exits ExitOK; neither starts a run.
func TestRejectedFlagsExitUsage(t *testing.T) {
	quietLog(t)
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-no-such-flag"}, core.ExitUsage},
		{[]string{"-vps=abc"}, core.ExitUsage},
		{[]string{"-small", "-minutes", "1e3"}, core.ExitUsage},
		{[]string{"-supervise"}, core.ExitUsage},
		{[]string{"-checkpoint", "d", "-supervise"}, core.ExitUsage},
		{[]string{"-h"}, core.ExitOK},
	} {
		if code := exitCode(run(append(tc.args, "-out", t.TempDir()))); code != tc.want {
			t.Errorf("run(%q) exits %d, want %d", tc.args, code, tc.want)
		}
	}
}
