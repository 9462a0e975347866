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
		{"archive letter", []string{"-data", good, "-letter", "K"}, core.ExitOK},
		{"two-byte letter", []string{"-data", good, "-letter", "KZ"}, core.ExitUsage},
		{"absent letter", []string{"-data", good, "-letter", "Q"}, core.ExitUsage},
		{"lower-case letter", []string{"-data", good, "-letter", "k"}, core.ExitUsage},
		{"zero width", []string{"-data", good, "-width", "0"}, core.ExitUsage},
		{"negative width", []string{"-data", good, "-width", "-5"}, core.ExitUsage},
	} {
		var out bytes.Buffer
		if code := run(tc.args, &out); code != tc.want {
			t.Errorf("%s: run(%q) = %d, want %d", tc.name, tc.args, code, tc.want)
		}
		if tc.want == core.ExitUsage && out.Len() != 0 {
			t.Errorf("%s: a rejected run printed %d bytes of report", tc.name, out.Len())
		}
		if tc.name == "archive" && !strings.HasPrefix(out.String(), "Dataset: 3 VPs (0 excluded), letters EK,") {
			t.Errorf("report starts %q", strings.SplitN(out.String(), "\n", 2)[0])
		}
	}
}

// TestExclusionReasonsSorted: the exclusion reasons print in sorted order,
// so one archive gives one report, where map order used to reorder them
// from run to run.
func TestExclusionReasonsSorted(t *testing.T) {
	log.SetOutput(io.Discard)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })

	d := atlas.NewDataset([]byte("EK"), nil, 8, 0, 10, 6, 4)
	for vp, reason := range []string{"hijack", "firmware", "hijack", "churn", "", "bogon", "firmware"} {
		if reason != "" {
			d.Exclude(atlas.VPID(vp), reason)
		}
	}
	var archive bytes.Buffer
	if err := d.Save(&archive); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dataset.bin")
	if err := os.WriteFile(path, archive.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	var first string
	for i := 0; i < 20; i++ {
		var out bytes.Buffer
		if code := run([]string{"-data", path, "-width", "12"}, &out); code != core.ExitOK {
			t.Fatalf("run %d exits %d", i, code)
		}
		if i == 0 {
			first = out.String()
		} else if out.String() != first {
			t.Fatalf("run %d differs from run 0:\n%s\nvs\n%s", i, out.String(), first)
		}
	}
	var got []string
	for _, line := range strings.Split(first, "\n") {
		if strings.HasPrefix(line, "  excluded ") {
			got = append(got, line)
		}
	}
	want := []string{
		"  excluded 1 VPs: bogon",
		"  excluded 1 VPs: churn",
		"  excluded 2 VPs: firmware",
		"  excluded 2 VPs: hijack",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("exclusion lines:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
