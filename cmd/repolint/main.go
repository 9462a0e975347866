// Command repolint runs the repository's static-analysis suite
// (internal/lintcheck) over one or more package patterns and reports any
// violation of the determinism, error-hygiene, panic-policy, API-hygiene,
// durability, or concurrency invariants — including the transitive
// determinism analysis, which prints the full call chain from an engine
// entry point to a forbidden time/randomness source.
//
// Usage:
//
//	go run ./cmd/repolint [flags] [patterns...]
//
//	-json            emit diagnostics as a JSON array instead of text
//	-rules           list every rule with its one-line doc and exit
//	-allows          list every //repolint:allow suppression and exit
//	-out FILE        also write the full findings JSON to FILE (atomically)
//
// Patterns default to ./... and are resolved against the enclosing module
// root, so the tool behaves the same from any subdirectory. Exit status
// follows the core.Exit* contract: core.ExitOK when clean (or after
// -rules/-allows), core.ExitFailure when diagnostics were
// reported, core.ExitUsage on load or usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/rootevent/anycastddos/internal/atomicio"
	"github.com/rootevent/anycastddos/internal/core"
	"github.com/rootevent/anycastddos/internal/lintcheck"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, prints results to stdout and
// complaints to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repolint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array instead of file:line:col text")
	rules := fs.Bool("rules", false, "list every rule with its one-line doc and exit")
	allows := fs.Bool("allows", false, "list every //repolint:allow suppression and exit")
	outPath := fs.String("out", "", "also write the full findings JSON to this file (atomically)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: repolint [flags] [patterns...]\n\nRules:\n")
		printRules(fs.Output())
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return core.UsageExit(err)
	}

	if *rules {
		printRules(stdout)
		return core.ExitOK
	}
	// fail reports a load or usage error.
	fail := func(err error) int {
		fmt.Fprintln(stderr, "repolint:", err)
		return core.ExitUsage
	}

	wd, err := os.Getwd()
	if err != nil {
		return fail(err)
	}
	root, err := lintcheck.ModuleRoot(wd)
	if err != nil {
		return fail(err)
	}
	pkgs, err := lintcheck.Load(root, fs.Args()...)
	if err != nil {
		return fail(err)
	}

	if *allows {
		for _, s := range lintcheck.Allows(pkgs) {
			line := fmt.Sprintf("%s:%d: %s", s.File, s.Line, strings.Join(s.Rules, ","))
			if s.Justification != "" {
				line += " -- " + s.Justification
			}
			fmt.Fprintln(stdout, line)
		}
		return core.ExitOK
	}

	diags := lintcheck.Run(pkgs, lintcheck.DefaultConfig())
	if diags == nil {
		diags = []lintcheck.Diagnostic{}
	}

	if *outPath != "" {
		if err := writeFindings(root, *outPath, diags); err != nil {
			return fail(err)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			return fail(err)
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "repolint: %d violation(s)\n", len(diags))
		}
		return core.ExitFailure
	}
	return core.ExitOK
}

func printRules(w io.Writer) {
	for _, r := range lintcheck.RuleDocs() {
		fmt.Fprintf(w, "  %-16s %s\n", r.Name, r.Doc)
	}
}

// writeFindings writes the complete findings array as indented JSON,
// atomically, creating parent directories.
func writeFindings(root, path string, diags []lintcheck.Diagnostic) error {
	data, err := json.MarshalIndent(diags, "", "  ")
	if err != nil {
		return err
	}
	abs := absAgainst(root, path)
	if err := os.MkdirAll(filepath.Dir(abs), 0o755); err != nil {
		return err
	}
	return atomicio.WriteFileBytes(abs, append(data, '\n'))
}

// absAgainst resolves a possibly-relative flag path against the module root,
// so `make lint` behaves identically from any subdirectory.
func absAgainst(root, path string) string {
	if filepath.IsAbs(path) {
		return path
	}
	return filepath.Join(root, path)
}
