package core

// Process exit codes shared by the command-line harnesses. A parent
// supervisor (the campaign runner, CI scripts) classifies a child run by
// its exit status instead of parsing logs, so the codes are part of the
// public contract of `rootevent -supervise` and the campaign scenario
// child: clean success, generic failure, panic, restart-budget
// exhaustion, and context cancellation are all distinct.

import (
	"context"
	"errors"
	"flag"
)

// Exit codes returned by supervised runs. ExitPanic deliberately matches
// the Go runtime's exit status for an unrecovered panic, so a crash that
// escapes every recover still classifies correctly.
const (
	// ExitOK is a clean, complete run.
	ExitOK = 0
	// ExitFailure is any failure not covered by a more specific code
	// (configuration errors, I/O failures).
	ExitFailure = 1
	// ExitPanic marks a run that panicked — recovered into ErrWorkerPanic
	// or ErrRunPanic, or unrecovered (the runtime itself exits 2).
	ExitPanic = 2
	// ExitRestartsExhausted marks a supervised run that kept failing until
	// the restart budget ran out (ErrRestartBudget).
	ExitRestartsExhausted = 3
	// ExitCanceled marks a run terminated by context cancellation or a
	// deadline, not by its own failure.
	ExitCanceled = 4
	// ExitUsage marks a run rejected before it started: bad flags, an
	// unreadable input, a malformed baseline. The value follows the BSD
	// sysexits EX_USAGE convention and stays clear of the run-outcome
	// codes above.
	ExitUsage = 64
)

// ErrRestartBudget marks a supervised run abandoned because every restart
// attempt failed; Supervise wraps it into its terminal error alongside
// the last attempt's failure.
var ErrRestartBudget = errors.New("core: restart budget exhausted")

// ExitCode maps a run's terminal error to the documented process exit
// code. Budget exhaustion wins over the wrapped per-attempt cause (a run
// that exhausted its restarts on repeated panics is ExitRestartsExhausted,
// not ExitPanic): the parent cares that supervision gave up, the per-cause
// detail stays in the error text and the recovery report.
func ExitCode(err error) int {
	switch {
	case err == nil:
		return ExitOK
	case errors.Is(err, ErrRestartBudget):
		return ExitRestartsExhausted
	case errors.Is(err, ErrWorkerPanic), errors.Is(err, ErrRunPanic):
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
