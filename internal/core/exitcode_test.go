package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

func TestExitCode(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"clean", nil, ExitOK},
		{"generic", errors.New("disk full"), ExitFailure},
		{"worker panic", fmt.Errorf("letter K minute 12: %w", ErrWorkerPanic), ExitPanic},
		{"panic beats cancel", errors.Join(fmt.Errorf("letter K: %w", ErrWorkerPanic), context.Canceled), ExitPanic},
		{"canceled", fmt.Errorf("run: %w", context.Canceled), ExitCanceled},
		{"deadline", fmt.Errorf("run: %w", context.DeadlineExceeded), ExitCanceled},
	}
	for _, tc := range cases {
		if got := ExitCode(tc.err); got != tc.want {
			t.Errorf("%s: ExitCode(%v) = %d, want %d", tc.name, tc.err, got, tc.want)
		}
	}
}
