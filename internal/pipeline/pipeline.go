// Package pipeline is the batch-repair engine of the CerFix
// reproduction: a streaming, sharded executor for non-interactive
// certain-fix passes over large datasets. The paper's data monitor
// "supports several interfaces to access data, which could be readily
// integrated with other database applications" (§3); this package is
// that integration point at scale.
//
// Because master data and editing rules are frozen for the duration of
// a batch (callers snapshot the engine first when the live system may
// mutate — core.Engine.Snapshot), each tuple's certain-fix chase is
// independent of every other tuple's: batch repair is embarrassingly
// parallel. Run shards the input across N workers, each owning a
// reusable core.Chaser — the compiled chase program's executor, pooled
// at the engine so scratch survives across runs — against the shared
// read-only engine, and re-sequences results so the sink observes
// exactly the order — and exactly the bytes — the sequential path
// would have produced.
//
// Memory stays flat regardless of input size, and once warm a run
// allocates a constant, not O(tuples): tuples, Result structs and
// ChaseResults live in batch arenas that recycle through the in-flight
// window and across runs (see the memory-model section below), the
// resequencer is a ring buffer sized by that window, and an in-flight
// token cap bounds how far the reader may run ahead of the slowest
// unfinished tuple, so a slow sink (or one pathological tuple) stalls
// the source instead of ballooning the resequencing buffer.
//
// # Memory model
//
// One batch — up to ChunkSize consecutive tuples, their inputs,
// Results and ChaseResults — is the unit of both work and memory. A
// fixed set of batches (O(window/ChunkSize + workers)) cycles
//
//	free pool → reader (fills inputs) → worker (chases into the
//	batch's result slots) → resequencer (sinks in order) → free pool
//
// with ownership handed off at each arrow, so no batch is ever shared
// between stages. Recycling piggybacks on the admission tokens: a
// batch returns to the free pool only after every one of its results
// has been written and its tokens released, which is exactly when
// nothing in the run can still reference it. The corollary is the
// package's recycling contract: a *Result (its Input, Fixed and Chase
// included) is valid only until Sink.Write returns — sinks that retain
// results must Clone them (SliceSink does). A sink that breaks it reads
// a later chunk's data, or a later run's.
//
// The batches outlive the run: a run takes them from a process-wide
// sync.Pool and, when it ends, gives back those in its free pool, their
// values, changes and conflicts cleared so that nothing pins the run's
// strings. After a clean run that is every batch; after a failed or
// cancelled one the reader may still hold one, so only the batches in
// the free pool go back and the rest are left to the collector. A warm
// run therefore allocates only its channels, goroutines and closures,
// and its chases write into warm slots from the first tuple on.
//
// Sources and sinks are small interfaces; CSV and JSONL streaming
// implementations live in io.go, and slice-backed ones serve the HTTP
// batch endpoint and tests. Sources may reuse the returned tuple
// between Next calls (the streaming ones do); the reader copies every
// tuple into batch-arena storage before asking for the next.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"

	"cerfix/internal/core"
	"cerfix/internal/guard"
	"cerfix/internal/schema"
)

// Options tunes a pipeline run. The zero value (or nil) picks
// defaults good for throughput on the current machine.
type Options struct {
	// Workers is the number of parallel chase workers; 1 degenerates
	// to the sequential path. Default: GOMAXPROCS.
	Workers int
	// Window is the maximum number of tuples in flight between source
	// and sink (the backpressure bound: reader admission, channel
	// capacity, resequencing ring and arena footprint all live inside
	// it). Default: 16 per worker, minimum 64.
	Window int
	// ChunkSize is how many consecutive tuples ride one work unit.
	// Chunking amortizes channel operations when individual fixes are
	// microsecond-cheap (the rule-index access path). Default 16.
	ChunkSize int
}

func (o *Options) workers() int {
	if o == nil || o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

func (o *Options) window(workers int) int {
	if o == nil || o.Window <= 0 {
		w := 16 * workers
		if w < 64 {
			w = 64
		}
		return w
	}
	return o.Window
}

func (o *Options) chunkSize() int {
	if o == nil || o.ChunkSize <= 0 {
		return 16
	}
	return o.ChunkSize
}

// Source yields input tuples in order; Next returns io.EOF when the
// stream is drained. The returned tuple — struct and value slice —
// need only stay valid until the next Next call: streaming sources
// decode into one reused tuple, and the pipeline copies it into arena
// storage before reading on. (The string values themselves must be
// immutable as usual; only the containers may be recycled.)
type Source interface {
	Next() (*schema.Tuple, error)
}

// Result is one tuple's outcome. Sinks receive results strictly in
// input order.
//
// Recycling contract: a Result and everything it references — Input,
// Fixed (which aliases Chase.Tuple) and Chase, including the change
// and conflict slices — live in a batch arena that is recycled through
// the pipeline's in-flight window. They are valid only until
// Sink.Write returns; a sink that retains anything past that must
// Clone the result (or copy the parts it keeps).
type Result struct {
	// Seq is the tuple's 0-based position in the input stream.
	Seq int
	// Input is the tuple as read from the source.
	Input *schema.Tuple
	// Fixed is the chased copy (Input is untouched). It is the same
	// tuple Chase.Tuple points to.
	Fixed *schema.Tuple
	// Chase carries the full outcome: changes, conflicts, rounds.
	Chase *core.ChaseResult
}

// Clone returns a deep copy safe to retain indefinitely, sharing
// nothing with the arena-backed original. Fixed aliases Chase.Tuple in
// the clone, as it does in pipeline-produced results.
func (r *Result) Clone() *Result {
	cp := &Result{Seq: r.Seq, Input: r.Input.Clone(), Chase: r.Chase.Clone()}
	cp.Fixed = cp.Chase.Tuple
	return cp
}

// Sink consumes results in input order. Write errors abort the run.
// The *Result argument obeys the recycling contract documented on
// Result: it is valid only until Write returns.
type Sink interface {
	Write(*Result) error
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(*Result) error

// Write implements Sink.
func (f SinkFunc) Write(r *Result) error { return f(r) }

// Discard drops every result; useful when only Stats matter.
var Discard Sink = SinkFunc(func(*Result) error { return nil })

// Stats aggregates a run, mirroring the counters of the sequential
// CLI and HTTP paths. The JSON tags are the wire shape of the jobs
// API and journal (snake_case, like every other API field).
type Stats struct {
	// Tuples is the number of tuples processed.
	Tuples int `json:"tuples"`
	// FullyValidated counts tuples whose every attribute ended
	// validated with no conflicts.
	FullyValidated int `json:"fully_validated"`
	// WithConflicts counts tuples that hit at least one conflict.
	WithConflicts int `json:"with_conflicts"`
	// CellsRewritten counts rule-made value changes across the batch.
	CellsRewritten int `json:"cells_rewritten"`
	// Workers is the worker count the run actually used.
	Workers int `json:"workers"`
}

// batch is one work unit AND its arena: up to ChunkSize consecutive
// tuples with their input storage, Result structs and ChaseResults.
// Batches are recycled through a run's free pool and, between runs,
// through arenas; inner buffers (value slices, change/conflict
// capacity) warm up on first use and persist across recycles, so a
// warm run allocates nothing per tuple.
type batch struct {
	startSeq int
	n        int
	in       []schema.Tuple     // inputs, copied from the source
	results  []Result           // handed to the sink, slot i ↔ in[i]
	chase    []core.ChaseResult // reusable chase outcomes, slot i ↔ in[i]
}

func newBatch(chunkSize int) *batch {
	return &batch{
		in:      make([]schema.Tuple, chunkSize),
		results: make([]Result, chunkSize),
		chase:   make([]core.ChaseResult, chunkSize),
	}
}

// arenas holds the batches of finished runs for the next run to take.
var arenas sync.Pool

// takeBatch returns a pooled batch of chunkSize slots, or a new one. A
// pooled batch of another chunk size is dropped, not resized.
func takeBatch(chunkSize int) *batch {
	if b, ok := arenas.Get().(*batch); ok && len(b.in) == chunkSize {
		return b
	}
	return newBatch(chunkSize)
}

// giveBack clears every value, change and conflict the batch holds,
// over their whole capacity so that no earlier chunk's strings stay
// pinned either, and pools the batch. The caller must own it outright.
func (b *batch) giveBack() {
	for i := range b.in {
		clear(b.in[i].Vals[:cap(b.in[i].Vals)])
		c := &b.chase[i]
		if c.Tuple != nil {
			clear(c.Tuple.Vals[:cap(c.Tuple.Vals)])
		}
		clear(c.Changes[:cap(c.Changes)])
		clear(c.Conflicts[:cap(c.Conflicts)])
	}
	arenas.Put(b)
}

// testWorkerHook, when non-nil, runs in each worker after a batch is
// chased and before it is handed to the resequencer. Tests use it to
// impose adversarial completion orders on the resequencing ring;
// production runs never set it.
var testWorkerHook func(startSeq int)

// Run executes a non-interactive certain-fix pass over every tuple of
// src, asserting the validated attribute set, and streams results to
// sink in input order. The engine must not be mutated during the run;
// when the live system may change concurrently, pass a snapshot
// (core.Engine.Snapshot). Output is byte-identical to calling
// eng.Chase per tuple sequentially.
//
// Cancelling ctx aborts the run: the reader stops admitting tuples,
// workers drain, and Run returns the partial Stats accumulated so far
// together with ctx's error. Because every stage parks inside the
// in-flight window, cancellation is observed within at most one
// window's worth of tuples — it never deadlocks on a full channel, nor
// waits on a source blocked in Next: the workers leave on cancellation,
// and the reader, which Run does not wait for, leaves once Next
// returns. Run never returns with a worker still running.
func Run(ctx context.Context, eng *core.Engine, validated schema.AttrSet, src Source, sink Sink, opts *Options) (Stats, error) {
	workers := opts.workers()
	chunkSize := opts.chunkSize()
	window := opts.window(workers)
	if window < chunkSize {
		// The reader acquires tokens before a chunk is flushed; a
		// window smaller than one chunk could strand the oldest
		// in-flight tuple inside the reader and deadlock.
		window = chunkSize
	}
	// nChunks bounds the chunk-granular spread of the window: with at
	// most window tuples admitted past the emit frontier, in-flight
	// chunk start positions span fewer than nChunks chunk indices —
	// the resequencing ring's structural invariant.
	nChunks := window/chunkSize + 1
	// The arena population: enough batches for every stage to hold a
	// full complement (jobs queue + results queue share nChunks of
	// window, one per worker, one in the reader) without the free pool
	// ever being the bottleneck in steady state.
	nBatches := 2*nChunks + workers + 1

	var (
		jobs     = make(chan *batch, nChunks)
		results  = make(chan *batch, nChunks)
		free     = make(chan *batch, nBatches)
		inflight = make(chan struct{}, window) // admission tokens, 1/tuple
		done     = make(chan struct{})
		errOnce  sync.Once
		runErr   error
	)
	for i := 0; i < nBatches; i++ {
		free <- takeBatch(chunkSize)
	}
	fail := func(err error) {
		errOnce.Do(func() {
			runErr = err
			close(done)
		})
	}
	// A panic escaping through the resequencer (a sink panic — reader
	// and worker panics are converted to run errors below) must still
	// release the pipeline: fail() unparks every stage before the panic
	// continues to the caller, so no goroutine is left blocked on a
	// channel nobody serves.
	defer func() {
		if p := recover(); p != nil {
			fail(guard.NewPanicError("pipeline sink", p, debug.Stack()))
			panic(p)
		}
	}()
	// chaos gates the fault-injection seam once per run: disabled (the
	// default) it costs one atomic load total, keeping the steady-state
	// zero-alloc path untouched.
	chaos := guard.ChaosEnabled()
	if ctx != nil {
		// A context cancelled before the run starts aborts
		// synchronously — no tuple is admitted on the watcher's
		// scheduling luck.
		if err := ctx.Err(); err != nil {
			return Stats{Workers: workers}, err
		}
	}
	if ctx != nil && ctx.Done() != nil {
		// Propagate external cancellation into the pipeline's own done
		// channel; the watcher exits with the run.
		finished := make(chan struct{})
		defer close(finished)
		go func() {
			select {
			case <-ctx.Done():
				fail(ctx.Err())
			case <-done:
			case <-finished:
			}
		}()
	}

	// Stage 1 — reader: copy the stream into batch arenas, admitting
	// at most window tuples past the resequencer's emit frontier. The
	// current batch is grabbed from the free pool only when the next
	// admitted tuple needs one, so a reader parked on the pool never
	// holds admission tokens hostage.
	go func() {
		defer close(jobs) // registered first: runs after the recover below
		defer func() {
			if p := recover(); p != nil {
				fail(guard.NewPanicError("pipeline reader", p, debug.Stack()))
			}
		}()
		var cur *batch
		seq := 0
		for {
			tu, err := src.Next()
			// A run that failed or was cancelled while Next blocked has
			// already returned: leave before touching anything else.
			select {
			case <-done:
				return
			default:
			}
			if err == io.EOF {
				if cur != nil && cur.n > 0 {
					select {
					case jobs <- cur:
					case <-done:
					}
				}
				return
			}
			if err != nil {
				fail(fmt.Errorf("pipeline: reading tuple %d: %w", seq, err))
				return
			}
			select {
			case inflight <- struct{}{}:
			case <-done:
				return
			}
			if cur == nil {
				select {
				case cur = <-free:
					cur.startSeq = seq
					cur.n = 0
				case <-done:
					return
				}
			}
			// Copy into the arena: the source may recycle tu on the
			// next Next call; the value strings themselves are
			// immutable and shared.
			dst := &cur.in[cur.n]
			dst.Schema = tu.Schema
			dst.ID = tu.ID
			dst.Vals = append(dst.Vals[:0], tu.Vals...)
			cur.n++
			seq++
			if cur.n >= chunkSize {
				select {
				case jobs <- cur:
					cur = nil
				case <-done:
					return
				}
			}
		}
	}()

	// Stage 2 — sharded workers: each owns a pooled chaser against the
	// shared read-only engine and chases into the batch's own result
	// slots, so the chase allocates nothing once the arena is warm.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var chaser *core.Chaser
			defer func() {
				if p := recover(); p != nil {
					// One poisoned tuple or rule fails the run as a typed
					// error instead of killing the process. The chaser is
					// abandoned, not released: its mid-chase scratch can't
					// be trusted back into the pool.
					fail(guard.NewPanicError("pipeline worker", p, debug.Stack()))
					return
				}
				if chaser != nil {
					chaser.Release()
				}
			}()
			chaser = eng.AcquireChaser()
			for {
				// Leave on done as well as on a closed jobs: the reader
				// closes jobs only once Next returns, and a source may
				// block in Next indefinitely.
				var b *batch
				select {
				case b = <-jobs:
				case <-done:
					return
				}
				if b == nil {
					return
				}
				for i := 0; i < b.n; i++ {
					in := &b.in[i]
					if chaos {
						for _, v := range in.Vals {
							if err := guard.ChaosValue(ctx, string(v)); err != nil {
								fail(err)
								return
							}
						}
					}
					res := chaser.ChaseInto(&b.chase[i], in, validated)
					b.results[i] = Result{Seq: b.startSeq + i, Input: in, Fixed: res.Tuple, Chase: res}
				}
				if testWorkerHook != nil {
					testWorkerHook(b.startSeq)
				}
				select {
				case results <- b:
				case <-done:
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Stage 3 — resequencer: restore input order through a ring sized
	// by the window, release admission tokens, feed the sink, recycle
	// the batch. Out-of-order completions are pure index stores: chunk
	// k lands in slot k mod nChunks, and the admission bound makes
	// collisions structurally impossible (two pending chunks nChunks
	// apart would need more than window tuples in flight).
	stats := Stats{Workers: workers}
	ring := make([]*batch, nChunks)
	pending := 0
	next := 0
	// emit refuses, checked once per batch, once the run has failed or
	// ctx is cancelled. ctx is read directly because its watcher may not
	// have closed done yet, and every emit releases admission tokens
	// that would let the reader and workers run on past the one-window
	// bound.
	emit := func(b *batch) bool {
		if ctx != nil && ctx.Err() != nil {
			fail(ctx.Err())
		}
		select {
		case <-done:
			return false
		default:
		}
		for i := 0; i < b.n; i++ {
			r := &b.results[i]
			stats.Tuples++
			if r.Chase.AllValidated() && len(r.Chase.Conflicts) == 0 {
				stats.FullyValidated++
			}
			if len(r.Chase.Conflicts) > 0 {
				stats.WithConflicts++
			}
			stats.CellsRewritten += r.Chase.RewriteCount()
			if err := sink.Write(r); err != nil {
				fail(fmt.Errorf("pipeline: writing tuple %d: %w", r.Seq, err))
				return false
			}
			<-inflight
		}
		next = b.startSeq + b.n
		// Recycle. free's capacity covers every batch ever created, so
		// this send cannot block; a plain send keeps the invariant
		// self-enforcing instead of silently dropping the batch.
		free <- b
		return true
	}
	// Once an emit refuses, drain results without emitting: the loop
	// ends only when the workers have exited and closed results, so Run
	// never returns with a worker still running.
	stopped := false
	for b := range results {
		if stopped {
			continue
		}
		if b.startSeq != next {
			ring[(b.startSeq/chunkSize)%nChunks] = b
			pending++
			continue
		}
		if stopped = !emit(b); stopped {
			continue
		}
		for pending > 0 {
			nb := ring[(next/chunkSize)%nChunks]
			if nb == nil || nb.startSeq != next {
				break
			}
			ring[(next/chunkSize)%nChunks] = nil
			pending--
			if stopped = !emit(nb); stopped {
				break
			}
		}
	}
	// Seal the error slot before reading it: every in-pipeline failure
	// is already ordered before this point (fail → close(done) →
	// worker exit → close(results) → loop end), but the ctx watcher
	// runs unsynchronized — claiming the Once here means a
	// cancellation that lost the race with a completed run can no
	// longer write.
	errOnce.Do(func() {})
	// Give back what is provably idle: the batches in free. After a
	// clean run that is all of them; after a failure the reader, which
	// Run does not wait for, may still take or hold one, and what it
	// takes, or what was abandoned in a channel or the ring, is left to
	// the collector.
	for drained := false; !drained; {
		select {
		case b := <-free:
			b.giveBack()
		default:
			drained = true
		}
	}
	if runErr != nil {
		return stats, runErr
	}
	if pending > 0 {
		// Unreachable unless a worker died; keep the invariant loud.
		return stats, errors.New("pipeline: results missing from resequencer")
	}
	return stats, nil
}
