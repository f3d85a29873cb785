// Package guard is the runtime-guardrails layer: the pieces that keep
// one misbehaving request, job or tuple from taking the daemon down
// with it. Where internal/faultfs hardens the process against a
// hostile disk, guard hardens it against a hostile runtime:
//
//   - PanicError turns a recovered panic into a typed, journalable
//     failure (stack included), so job runners and pipeline workers
//     isolate panics instead of crashing the process;
//   - Watchdog cancels runs whose progress counter has stalled past a
//     deadline (watchdog.go);
//   - MemMonitor checks the heap against soft/hard watermarks with
//     hysteresis and drives memory-pressure load shedding (mem.go);
//   - the chaos seam (chaos.go) lets tests and the CI smoke inject
//     stalls and panics deterministically, faultfs-Injector style.
//
// The package is a stdlib-only leaf: everything above it — jobs,
// pipeline, server, cerfixd — may import it freely.
package guard

import (
	"errors"
	"fmt"
)

// ErrStalled marks a run cancelled by the Watchdog because its
// progress counter stopped advancing. Callers classify it with
// errors.Is on context.Cause of the cancelled context.
var ErrStalled = errors.New("guard: run stalled")

// PanicError is a recovered panic promoted to an error: the panic
// value, where it was caught, and the goroutine stack at recovery.
// It converts "one poisoned tuple kills the daemon" into "one job
// fails with a journaled stack".
type PanicError struct {
	// Where names the recovery site ("pipeline worker", "jobs runner").
	Where string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at the recovery point
	// (runtime/debug.Stack).
	Stack []byte
}

// NewPanicError wraps a recovered panic value and its stack.
func NewPanicError(where string, value any, stack []byte) *PanicError {
	return &PanicError{Where: where, Value: value, Stack: stack}
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("%s: panic: %v", e.Where, e.Value)
}
