package core

// Process exit codes shared by the command-line harnesses. A parent
// supervisor (the campaign runner, CI scripts) classifies a child run by
// its exit status instead of parsing logs, so the codes are part of the
// public contract of rootevent and the campaign scenario worker: clean
// success, generic failure, panic, context cancellation, and a rejected
// command line are all distinct.

import (
	"context"
	"errors"
	"flag"
)

// Exit codes returned by runs. ExitPanic deliberately matches the Go
// runtime's exit status for an unrecovered panic, so a crash that escapes
// every recover still classifies correctly. Code 3 is unassigned: it
// meant restart-budget exhaustion under the retired in-process run
// supervisor, and it is not to be reused, so that a 3 in an old ledger or
// log is never misread.
const (
	// ExitOK is a clean, complete run.
	ExitOK = 0
	// ExitFailure is any failure not covered by a more specific code
	// (configuration errors, I/O failures).
	ExitFailure = 1
	// ExitPanic marks a run that panicked — recovered into ErrWorkerPanic,
	// or unrecovered (the runtime itself exits 2).
	ExitPanic = 2
	// ExitCanceled marks a run terminated by context cancellation or a
	// deadline, not by its own failure.
	ExitCanceled = 4
	// ExitUsage marks a run rejected before it started: bad flags, an
	// unreadable input, a malformed baseline. The value follows the BSD
	// sysexits EX_USAGE convention and stays clear of the run-outcome
	// codes above.
	ExitUsage = 64
)

// ExitCode maps a run's terminal error to the documented process exit
// code. A recovered panic wins over a cancellation wrapped beside it.
func ExitCode(err error) int {
	switch {
	case err == nil:
		return ExitOK
	case errors.Is(err, ErrWorkerPanic):
		return ExitPanic
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return ExitCanceled
	default:
		return ExitFailure
	}
}

// UsageExit maps the error of a flag.ContinueOnError FlagSet's Parse onto
// the contract: -h asked for help and exits ExitOK, anything else is a
// rejected command line and exits ExitUsage. The flag package has already
// printed the error and the usage text.
func UsageExit(err error) int {
	if errors.Is(err, flag.ErrHelp) {
		return ExitOK
	}
	return ExitUsage
}
