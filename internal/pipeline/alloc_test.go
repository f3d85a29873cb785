//go:build !race

package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"runtime"
	"testing"
)

// The steady-state allocation contract of the recycled pipeline: a
// batch run over N tuples allocates a constant — per-run channels,
// goroutines and closures; the batch arenas come warm from the
// previous run — NOT O(N). Amortized over a few thousand tuples that
// must stay under a small constant per tuple on the slice and JSONL
// paths (the acceptance gate: ≤ 2 allocs/tuple; the chase itself
// contributes zero once arenas are warm, the JSONL decoder one backing
// string per line), and a short run must stay under a small constant.
// Excluded under the race detector, whose instrumentation allocates.

// mallocs reads the cumulative heap-allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// measureAllocsPerTuple runs fn twice — once to warm the chaser pool
// and amortizable state — and returns allocations per tuple of the
// second run.
func measureAllocsPerTuple(t *testing.T, tuples int, fn func()) float64 {
	t.Helper()
	fn() // warm: chaser pool, sink schema binding, GC steady state
	runtime.GC()
	m0 := mallocs()
	fn()
	return float64(mallocs()-m0) / float64(tuples)
}

const allocsPerTupleBudget = 2.0

// TestPipelineSteadyStateAllocsSlice gates the slice path: tuples in
// memory, results discarded after the per-result bookkeeping.
func TestPipelineSteadyStateAllocsSlice(t *testing.T) {
	eng, dirty, seed := workloadEngine(t, 50, 4000)
	for _, workers := range []int{1, 4} {
		run := func() {
			if _, err := Run(context.Background(), eng, seed, NewSliceSource(dirty), Discard,
				&Options{Workers: workers}); err != nil {
				t.Fatal(err)
			}
		}
		if avg := measureAllocsPerTuple(t, len(dirty), run); avg > allocsPerTupleBudget {
			t.Errorf("slice path, %d workers: %.2f allocs/tuple, budget %.1f", workers, avg, allocsPerTupleBudget)
		}
	}
}

// TestPipelineShortRunAllocs gates a short run, where the per-tuple
// average above cannot hide a per-run cost: batch arenas outlive their
// run, so a 256-tuple slice run after a warm-up run allocates only its
// channels, goroutines and closures — at most 32 times, whatever the
// worker count — and its chases write into warm slots. The count is
// the mean over 20 runs: the runtime's own caches (sudogs for blocked
// channel operations, goroutine structs, sync.Pool chain links) refill
// now and then, and a collection leaves a batch or two out of reach.
func TestPipelineShortRunAllocs(t *testing.T) {
	const tuples, budget = 256, 32
	eng, dirty, seed := workloadEngine(t, 50, tuples)
	for _, workers := range []int{1, 2, 4} {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := Run(context.Background(), eng, seed, NewSliceSource(dirty), Discard,
				&Options{Workers: workers}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d workers: %.0f allocs per %d-tuple run", workers, allocs, tuples)
		if allocs > budget {
			t.Errorf("a %d-tuple run at %d workers allocates %.0f times after a warm-up run, budget %d",
				tuples, workers, allocs, budget)
		}
	}
}

// TestPipelineSteadyStateAllocsJSONL gates the full streaming JSONL
// path — decode through the reusing source, chase, encode through the
// append-style sink.
func TestPipelineSteadyStateAllocsJSONL(t *testing.T) {
	eng, dirty, seed := workloadEngine(t, 50, 4000)
	sch := dirty[0].Schema
	var data bytes.Buffer
	enc := json.NewEncoder(&data)
	for _, tu := range dirty {
		if err := enc.Encode(tu.Map()); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 4} {
		sink := NewJSONLSink(io.Discard)
		run := func() {
			src := NewJSONLSource(sch, bytes.NewReader(data.Bytes()))
			if _, err := Run(context.Background(), eng, seed, src, sink,
				&Options{Workers: workers}); err != nil {
				t.Fatal(err)
			}
		}
		if avg := measureAllocsPerTuple(t, len(dirty), run); avg > allocsPerTupleBudget {
			t.Errorf("jsonl path, %d workers: %.2f allocs/tuple, budget %.1f", workers, avg, allocsPerTupleBudget)
		}
	}
}

// TestChaseIntoZeroAllocSteadyState pins the kernel-side half of the
// contract in isolation: once a batch slot's buffers are warm,
// ChaseInto performs zero heap allocations per tuple (the arena
// generalization of the Chaser's own scratch result).
func TestChaseIntoZeroAllocSteadyState(t *testing.T) {
	eng, dirty, seed := workloadEngine(t, 20, 64)
	ch := eng.AcquireChaser()
	defer ch.Release()
	b := newBatch(16)
	warm := func() {
		for i := 0; i < 16; i++ {
			ch.ChaseInto(&b.chase[i], dirty[i%len(dirty)], seed)
		}
	}
	warm()
	avg := testing.AllocsPerRun(100, warm)
	if avg != 0 {
		t.Errorf("warm ChaseInto allocates %v per 16-tuple batch, want 0", avg)
	}
}
