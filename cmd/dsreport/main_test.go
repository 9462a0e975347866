package main

import (
	"bytes"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/rootevent/anycastddos/internal/atlas"
	"github.com/rootevent/anycastddos/internal/core"
)

// TestRunExitCodes drives dsreport's command line: a rejected flag or an
// archive that cannot be read or decoded is a usage error, and a readable
// archive reports its header line.
func TestRunExitCodes(t *testing.T) {
	log.SetOutput(io.Discard)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })

	dir := t.TempDir()
	var archive bytes.Buffer
	if err := atlas.NewDataset([]byte("EK"), []byte("K"), 3, 0, 10, 6, 4).Save(&archive); err != nil {
		t.Fatal(err)
	}
	good := filepath.Join(dir, "dataset.bin")
	truncated := filepath.Join(dir, "truncated.bin")
	if err := os.WriteFile(good, archive.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(truncated, archive.Bytes()[:archive.Len()/2], 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"unknown flag", []string{"-no-such-flag"}, core.ExitUsage},
		{"malformed value", []string{"-width", "abc"}, core.ExitUsage},
		{"help", []string{"-h"}, core.ExitOK},
		{"missing file", []string{"-data", filepath.Join(dir, "absent.bin")}, core.ExitUsage},
		{"truncated archive", []string{"-data", truncated}, core.ExitUsage},
		{"archive", []string{"-data", good, "-width", "12"}, core.ExitOK},
	} {
		var out bytes.Buffer
		if code := run(tc.args, &out); code != tc.want {
			t.Errorf("%s: run(%q) = %d, want %d", tc.name, tc.args, code, tc.want)
		}
		if tc.name == "archive" && !strings.HasPrefix(out.String(), "Dataset: 3 VPs (0 excluded), letters EK,") {
			t.Errorf("report starts %q", strings.SplitN(out.String(), "\n", 2)[0])
		}
	}
}
