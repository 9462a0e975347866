package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"github.com/rootevent/anycastddos/internal/core"
	"github.com/rootevent/anycastddos/internal/lintcheck"
)

// TestRunExitCodes: the command line follows the core.Exit* contract.
// None of the rows loads the module, so the test stays fast; the clean run
// over the whole tree is lintcheck's TestRepolintSelfClean.
func TestRunExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"help", []string{"-h"}, core.ExitOK},
		{"unknown flag", []string{"-no-such-flag"}, core.ExitUsage},
		{"rules", []string{"-rules"}, core.ExitOK},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.want {
			t.Errorf("%s: run(%q) = %d, want %d\n%s", tc.name, tc.args, code, tc.want, stderr.String())
		}
		if tc.name != "rules" {
			continue
		}
		for _, r := range lintcheck.RuleDocs() {
			if !strings.Contains(stdout.String(), " "+r.Name+" ") {
				t.Errorf("-rules does not list %s:\n%s", r.Name, stdout.String())
			}
		}
	}
}

// TestRunOutsideModule: from a directory no go.mod encloses, there is no
// module to lint, and the run is rejected as a usage error.
func TestRunOutsideModule(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	})
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != core.ExitUsage {
		t.Errorf("run outside the module = %d, want %d\n%s", code, core.ExitUsage, stderr.String())
	}
	if !strings.HasPrefix(stderr.String(), "repolint: ") {
		t.Errorf("stderr = %q, want one repolint: line", stderr.String())
	}
}
