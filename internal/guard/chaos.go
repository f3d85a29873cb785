package guard

import (
	"context"
	"sync/atomic"
)

// The chaos seam: deterministic runtime-fault injection in the spirit
// of faultfs.Injector, but for compute instead of disk. When enabled
// (cerfixd: CERFIX_CHAOS=1; tests: SetChaos), tuples carrying the
// magic values below misbehave inside the pipeline workers:
//
//	__chaos_panic__  panics mid-chase (proving panic isolation)
//	__chaos_stall__  blocks until the run's context is cancelled
//	                 (proving the stuck-job watchdog)
//
// Stalls draw from an armed budget (ArmStalls) so a test can stall a
// job exactly once and watch the re-queued attempt succeed. The whole
// seam costs one atomic load per pipeline run when disabled.

const (
	// ChaosPanicValue, as any attribute value, panics the worker.
	ChaosPanicValue = "__chaos_panic__"
	// ChaosStallValue, as any attribute value, blocks the worker until
	// the run is cancelled — if the stall budget allows.
	ChaosStallValue = "__chaos_stall__"
)

var (
	chaosOn     atomic.Bool
	stallBudget atomic.Int64
)

// SetChaos enables or disables the seam; disabling clears the stall
// budget.
func SetChaos(on bool) {
	chaosOn.Store(on)
	if !on {
		stallBudget.Store(0)
	}
}

// ChaosEnabled reports whether the seam is armed. Pipeline runs read
// it once at start.
func ChaosEnabled() bool { return chaosOn.Load() }

// ArmStalls sets how many __chaos_stall__ hits actually stall: n < 0
// means every hit (the CI chaos daemon), n == 1 lets a test stall one
// attempt and have the retry pass the same tuple through.
func ArmStalls(n int) { stallBudget.Store(int64(n)) }

// takeStall consumes one unit of stall budget.
func takeStall() bool {
	for {
		n := stallBudget.Load()
		if n == 0 {
			return false
		}
		if n < 0 {
			return true
		}
		if stallBudget.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

// ChaosValue applies the seam to one attribute value. Callers gate on
// ChaosEnabled first; a stall parks on ctx (a nil or non-cancellable
// ctx never releases it — production paths always pass the run
// context) and returns ctx's error once released: the stalled tuple
// never completes, so the caller must abort the run with that error
// rather than finish the tuple and race the cancellation.
func ChaosValue(ctx context.Context, v string) error {
	switch v {
	case ChaosPanicValue:
		panic("chaos: injected panic (tuple value " + ChaosPanicValue + ")")
	case ChaosStallValue:
		if takeStall() {
			if ctx == nil {
				ctx = context.Background()
			}
			<-ctx.Done()
			return ctx.Err()
		}
	}
	return nil
}
