// Package exitcode is a repolint fixture: ad-hoc exit statuses versus the
// core.Exit* contract. Exact line numbers are asserted in
// internal/lintcheck/lintcheck_v2_test.go (TestExitCodeFixture).
package exitcode

import (
	"flag"
	"log"
	"os"

	"github.com/rootevent/anycastddos/internal/core"
)

// BareExit exits with a magic number nothing documents.
func BareExit() {
	os.Exit(5) // want exitcode (line 16)
}

// Fatal hard-exits 1 and skips deferred cleanup.
func Fatal(err error) {
	log.Fatalf("boom: %v", err) // want exitcode (line 21)
}

// Contract exits through the documented constants; no diagnostic expected.
func Contract() {
	os.Exit(core.ExitFailure)
}

// ExitOnError exits 2 (core.ExitPanic) on a bad flag.
func ExitOnError(args []string) {
	fs := flag.NewFlagSet("x", flag.ExitOnError) // want exitcode (line 31)
	_ = fs.Parse(args)
}

// GlobalParse exits 2 on a bad flag through flag.CommandLine.
func GlobalParse() {
	flag.Parse() // want exitcode (line 37)
}

// ContinueOnError maps a rejected command line onto the contract; no
// diagnostic expected.
func ContinueOnError(args []string) int {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return core.UsageExit(err)
	}
	return core.ExitOK
}
