package guard

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The watchdog fires exactly once for a run whose progress counter
// stops, with a cause wrapping ErrStalled, and never for one that
// keeps advancing.
func TestWatchdogFiresOnStall(t *testing.T) {
	w := NewWatchdog(100 * time.Millisecond)
	var progress atomic.Int64
	var got atomic.Value
	unwatch := w.Watch("j000001", progress.Load, func(err error) { got.Store(err) })
	defer unwatch()

	base := time.Now()
	// Advancing progress resets the stall clock.
	w.Sweep(base)
	progress.Store(5)
	w.Sweep(base.Add(90 * time.Millisecond))
	w.Sweep(base.Add(170 * time.Millisecond)) // 80ms without progress: no fire
	if got.Load() != nil {
		t.Fatalf("fired while progressing: %v", got.Load())
	}
	// Now stall past the timeout.
	w.Sweep(base.Add(300 * time.Millisecond))
	err, _ := got.Load().(error)
	if err == nil {
		t.Fatal("watchdog did not fire after stall timeout")
	}
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("cause = %v, want ErrStalled", err)
	}
	if w.Stalls() != 1 {
		t.Fatalf("Stalls() = %d, want 1", w.Stalls())
	}
	// Only once per registration.
	w.Sweep(base.Add(time.Hour))
	if w.Stalls() != 1 {
		t.Fatalf("fired twice for one run")
	}
}

// Unwatching before the timeout elapses prevents the fire.
func TestWatchdogUnwatch(t *testing.T) {
	w := NewWatchdog(50 * time.Millisecond)
	fired := false
	unwatch := w.Watch("j1", func() int64 { return 0 }, func(error) { fired = true })
	unwatch()
	w.Sweep(time.Now().Add(time.Hour))
	if fired {
		t.Fatal("fired after unwatch")
	}
}

// The background sweeper cancels a stalled context end to end.
func TestWatchdogBackgroundSweep(t *testing.T) {
	w := NewWatchdog(20 * time.Millisecond)
	w.Start()
	defer w.Close()
	ctx, cancel := context.WithCancelCause(context.Background())
	unwatch := w.Watch("bg", func() int64 { return 0 }, func(err error) { cancel(err) })
	defer unwatch()
	select {
	case <-ctx.Done():
		if !errors.Is(context.Cause(ctx), ErrStalled) {
			t.Fatalf("cause = %v", context.Cause(ctx))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog never cancelled the stalled run")
	}
}

// Watermark hysteresis: states are entered at the mark, left only
// below 90% of it, so oscillation around a mark cannot flap.
func TestWatermarkHysteresis(t *testing.T) {
	heap := uint64(0)
	m := NewMemMonitor(MemConfig{
		Soft:   1000,
		Hard:   2000,
		Sample: func() uint64 { return heap },
	})
	step := func(h uint64, want Pressure) {
		t.Helper()
		heap = h
		if got := m.Poll(); got != want {
			t.Fatalf("heap %d: state = %v, want %v", h, got, want)
		}
	}
	step(500, PressureOK)
	step(1000, PressureSoft)
	// Dipping just below soft keeps the state (hysteresis band is
	// [900, 1000)).
	step(950, PressureSoft)
	step(899, PressureOK)
	step(2500, PressureHard)
	// Below hard but above its recovery point stays hard.
	step(1900, PressureHard)
	// Recovering from hard lands on soft while still above soft.
	step(1500, PressureSoft)
	step(100, PressureOK)

	st := m.Status()
	if st.State != "ok" || st.HeapBytes != 100 || st.SoftBytes != 1000 || st.HardBytes != 2000 {
		t.Fatalf("status = %+v", st)
	}
	// ok→soft→ok→hard→soft→ok: five transitions.
	if st.Transitions != 5 {
		t.Fatalf("transitions = %d, want 5", st.Transitions)
	}
}

// The transition hook sees every state change with the heap reading
// that caused it.
func TestMemMonitorOnChange(t *testing.T) {
	heap := uint64(0)
	m := NewMemMonitor(MemConfig{Soft: 100, Sample: func() uint64 { return heap }})
	var calls []string
	m.SetOnChange(func(old, new Pressure, h uint64) {
		calls = append(calls, old.String()+"->"+new.String())
	})
	heap = 50
	m.Poll()
	heap = 150
	m.Poll()
	m.Poll() // unchanged: no call
	heap = 10
	m.Poll()
	if len(calls) != 2 || calls[0] != "ok->soft" || calls[1] != "soft->ok" {
		t.Fatalf("calls = %v", calls)
	}
}

// Each job submit and /status read polls, so Poll runs on many
// goroutines at once: every counted transition reaches the hook
// exactly once.
func TestMemMonitorConcurrentPoll(t *testing.T) {
	var heap atomic.Uint64
	m := NewMemMonitor(MemConfig{Soft: 100, Sample: heap.Load})
	var hooks atomic.Int64
	m.SetOnChange(func(old, new Pressure, h uint64) { hooks.Add(1) })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				heap.Store(uint64(50 + 100*((g+i)%2)))
				m.Poll()
			}
		}(g)
	}
	wg.Wait()
	if st := m.Status(); st.Transitions == 0 || st.Transitions != hooks.Load() {
		t.Fatalf("transitions = %d, hook calls = %d", st.Transitions, hooks.Load())
	}
}

// The default sampler reads a live, plausible heap size.
func TestHeapSampler(t *testing.T) {
	m := NewMemMonitor(MemConfig{Soft: 1 << 40})
	m.Poll()
	if st := m.Status(); st.HeapBytes == 0 {
		t.Fatal("runtime/metrics heap sample is zero")
	}
}

// A heap sample of 0 is no reading: the sampler falls back to
// runtime.ReadMemStats, so the monitor still sees the live heap.
func TestMemMonitorZeroHeapSampleFallsBack(t *testing.T) {
	read := readHeapObjects
	readHeapObjects = func() uint64 { return 0 }
	defer func() { readHeapObjects = read }()
	m := NewMemMonitor(MemConfig{Soft: 1 << 40})
	m.Poll()
	if st := m.Status(); st.HeapBytes == 0 {
		t.Fatal("a zero runtime/metrics heap sample reached the monitor")
	}
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want uint64
		ok   bool
	}{
		{"", 0, true},
		{"0", 0, true},
		{"1024", 1024, true},
		{"64MiB", 64 << 20, true},
		{"64mb", 64 << 20, true},
		{"1.5GiB", 3 << 29, true},
		{"2KB", 2048, true},
		{"512 MiB", 512 << 20, true},
		{"10B", 10, true},
		{"1TiB", 1 << 40, true},
		{"junk", 0, false},
		{"-1", 0, false},
		{"MiB", 0, false},
	}
	for _, tc := range cases {
		got, err := ParseBytes(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("ParseBytes(%q) err = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("ParseBytes(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// PanicError carries the panic value and stack through the error
// interface.
func TestPanicError(t *testing.T) {
	err := NewPanicError("pipeline worker", "boom", []byte("stack trace"))
	if err.Error() != "pipeline worker: panic: boom" {
		t.Fatalf("Error() = %q", err.Error())
	}
	var pe *PanicError
	if !errors.As(error(err), &pe) || string(pe.Stack) != "stack trace" {
		t.Fatalf("errors.As round trip failed")
	}
}

// The stall budget is consumed per hit; the panic value always fires.
func TestChaosSeam(t *testing.T) {
	SetChaos(true)
	defer SetChaos(false)

	// Budget of 1: first stall parks until cancel, second passes through.
	ArmStalls(1)
	ctx, cancel := context.WithCancel(context.Background())
	released := make(chan struct{})
	var stallErr error
	go func() {
		stallErr = ChaosValue(ctx, ChaosStallValue)
		close(released)
	}()
	select {
	case <-released:
		t.Fatal("stall did not block")
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("stall did not release on cancel")
	}
	if !errors.Is(stallErr, context.Canceled) {
		t.Fatalf("released stall returned %v, want the context's error", stallErr)
	}
	// Budget exhausted: returns immediately, nothing to abort.
	if err := ChaosValue(ctx, ChaosStallValue); err != nil {
		t.Fatalf("unarmed stall returned %v", err)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("chaos panic value did not panic")
		}
	}()
	ChaosValue(ctx, ChaosPanicValue)
}
