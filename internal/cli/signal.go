package cli

import (
	"context"
	"errors"
	"os"
	"os/signal"
	"syscall"
)

// SignalContext returns a context cancelled on SIGINT or SIGTERM (and
// a stop function restoring default signal behaviour). Every frontend
// builds its time budget on it (Budget.Start, c11fuzz -budget), so an
// interrupted search stops at its next admission check with
// StopCancelled: the run is reported as a normal budget-cut result —
// partial statistics, a final checkpoint when -checkpoint is set — and
// the tool exits with ExitBounded (2), same as any other inconclusive
// cut.
func SignalContext(parent context.Context) (context.Context, context.CancelFunc) {
	return signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
}

// CutReason names what ended a done time budget, for the tools'
// "stopped early" lines: "time budget exhausted" for an expired
// deadline, "interrupted" for a signal or any other cancel.
func CutReason(ctx context.Context) string {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return "time budget exhausted"
	}
	return "interrupted"
}
