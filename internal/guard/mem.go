package guard

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
)

// Pressure is the level a watermarked heap is at.
type Pressure int

const (
	// PressureOK: below every watermark — admit everything.
	PressureOK Pressure = iota
	// PressureSoft: past the soft watermark — shed deferrable work
	// (job submits) with 429 + Retry-After.
	PressureSoft
	// PressureHard: past the hard watermark — degraded; shed
	// everything deferrable with 503 and say so on /status.
	PressureHard
)

func (p Pressure) String() string {
	switch p {
	case PressureSoft:
		return "soft"
	case PressureHard:
		return "hard"
	default:
		return "ok"
	}
}

// recoverFrac is the fraction of a watermark the heap must fall below
// to leave its state.
const recoverFrac = 0.9

// Watermarks is a two-level threshold with hysteresis. A state is
// entered when the value reaches its watermark but left only when the
// value falls below recoverFrac of it, so a heap oscillating around a
// watermark cannot flap the state (and the log) poll by poll. It is a
// pure function over (current state, observed value), so the policy
// is testable without a heap.
type Watermarks struct {
	// Soft and Hard are the thresholds in bytes; 0 disables that
	// level.
	Soft, Hard uint64
}

func recoverBelow(mark uint64) uint64 { return uint64(float64(mark) * recoverFrac) }

// Next returns the state after observing v from state cur.
func (wm Watermarks) Next(cur Pressure, v uint64) Pressure {
	switch cur {
	case PressureHard:
		if v >= recoverBelow(wm.Hard) {
			return PressureHard
		}
		if wm.Soft > 0 && v >= wm.Soft {
			return PressureSoft
		}
		return PressureOK
	case PressureSoft:
		if wm.Hard > 0 && v >= wm.Hard {
			return PressureHard
		}
		if wm.Soft > 0 && v >= recoverBelow(wm.Soft) {
			return PressureSoft
		}
		return PressureOK
	default:
		if wm.Hard > 0 && v >= wm.Hard {
			return PressureHard
		}
		if wm.Soft > 0 && v >= wm.Soft {
			return PressureSoft
		}
		return PressureOK
	}
}

// MemMonitor checks the Go heap against soft/hard watermarks and
// exposes the hysteresis state for load shedding: soft sheds new job
// submits with 429 + Retry-After, hard is the memory_degraded state
// surfaced on /api/v1/status. Admission by queue depth alone cannot
// see a queue of small jobs over huge rows; this closes that gap with
// the signal that actually OOMs a process. The heap is read only by
// Poll, where the admission decision is made (each job submit and each
// /status read), so the monitor owns no goroutine.
type MemMonitor struct {
	marks Watermarks
	// sample reads the current heap size; replaceable for tests.
	sample func() uint64

	mu          sync.Mutex
	state       Pressure
	heap        uint64
	transitions int64
	onChange    func(old, new Pressure, heapBytes uint64)
}

// MemConfig wires a MemMonitor.
type MemConfig struct {
	// Soft and Hard are heap watermarks in bytes (0 disables a level).
	Soft, Hard uint64
	// Sample overrides heap sampling — tests inject a fake heap. Nil
	// reads runtime/metrics' live-objects heap size.
	Sample func() uint64
}

// NewMemMonitor builds a monitor in the ok state; Poll samples it.
func NewMemMonitor(cfg MemConfig) *MemMonitor {
	m := &MemMonitor{
		marks:  Watermarks{Soft: cfg.Soft, Hard: cfg.Hard},
		sample: cfg.Sample,
	}
	if m.sample == nil {
		m.sample = heapInUse
	}
	return m
}

// heapInUse reads the bytes occupied by live heap objects — the
// runtime/metrics successor to MemStats.HeapAlloc, sampled without a
// stop-the-world. The runtime adds small objects to that count only
// when their span leaves a P's cache, so the reading lags, and it has
// been seen to read 0. A live Go process always has heap objects, so 0
// means no reading: runtime.ReadMemStats, which flushes every cache
// (and stops the world briefly), answers instead, and the monitor
// never takes a missing reading for an empty heap.
func heapInUse() uint64 {
	if n := readHeapObjects(); n > 0 {
		return n
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// readHeapObjects reads /memory/classes/heap/objects:bytes, or 0 when
// the runtime does not report it. A variable, so that a test can make
// it read 0.
var readHeapObjects = func() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		return s[0].Value.Uint64()
	}
	return 0
}

// SetOnChange installs the transition hook (logging). The hook runs,
// outside the monitor's lock, on the goroutine whose Poll saw the
// change.
func (m *MemMonitor) SetOnChange(fn func(old, new Pressure, heapBytes uint64)) {
	m.mu.Lock()
	m.onChange = fn
	m.mu.Unlock()
}

// Poll takes one sample and advances the hysteresis state, returning
// the new state. Callers poll where they decide: the server before
// admitting a job submit and before answering /status; tests drive
// transitions deterministically.
func (m *MemMonitor) Poll() Pressure {
	heap := m.sample()
	m.mu.Lock()
	old := m.state
	next := m.marks.Next(old, heap)
	m.state = next
	m.heap = heap
	hook := m.onChange
	if next != old {
		m.transitions++
	}
	m.mu.Unlock()
	if next != old && hook != nil {
		hook(old, next, heap)
	}
	return next
}

// MemStatus is the monitor's wire shape under /api/v1/status.
type MemStatus struct {
	// State is "ok", "soft" or "hard"; hard is the memory_degraded
	// condition.
	State string `json:"state"`
	// HeapBytes is the last sampled live-heap size.
	HeapBytes uint64 `json:"heap_bytes"`
	// SoftBytes and HardBytes echo the watermarks (0 = disabled).
	SoftBytes uint64 `json:"soft_bytes"`
	HardBytes uint64 `json:"hard_bytes"`
	// Transitions counts state changes since start — a flapping
	// detector that should stay near zero thanks to hysteresis.
	Transitions int64 `json:"transitions"`
}

// Status snapshots the monitor for the status endpoint.
func (m *MemMonitor) Status() MemStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MemStatus{
		State:       m.state.String(),
		HeapBytes:   m.heap,
		SoftBytes:   m.marks.Soft,
		HardBytes:   m.marks.Hard,
		Transitions: m.transitions,
	}
}

// ParseBytes parses a human byte size: a bare number of bytes, or a
// number with a KiB/MiB/GiB/TiB (or KB/MB/GB/TB, same powers of 1024)
// suffix, case-insensitive, optional fraction ("1.5GiB"). Empty means
// 0 (disabled).
func ParseBytes(s string) (uint64, error) {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, nil
	}
	upper := strings.ToUpper(t)
	mult := uint64(1)
	for _, u := range []struct {
		suffix string
		mult   uint64
	}{
		{"KIB", 1 << 10}, {"MIB", 1 << 20}, {"GIB", 1 << 30}, {"TIB", 1 << 40},
		{"KB", 1 << 10}, {"MB", 1 << 20}, {"GB", 1 << 30}, {"TB", 1 << 40},
		{"B", 1},
	} {
		if strings.HasSuffix(upper, u.suffix) {
			mult = u.mult
			upper = strings.TrimSuffix(upper, u.suffix)
			break
		}
	}
	num := strings.TrimSpace(upper)
	if num == "" {
		return 0, fmt.Errorf("bad byte size %q", s)
	}
	f, err := strconv.ParseFloat(num, 64)
	if err != nil || f < 0 {
		return 0, fmt.Errorf("bad byte size %q", s)
	}
	return uint64(f * float64(mult)), nil
}
