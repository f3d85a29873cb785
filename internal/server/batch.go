package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"cerfix/internal/jobs"
	"cerfix/internal/pipeline"
	"cerfix/internal/schema"
)

// This file adds the batch-fix endpoint: the demo's monitor "supports
// several interfaces to access data, which could be readily integrated
// with other database applications" (§3) — batch mode is the
// integration point for bulk pipelines, applying non-interactive
// certain-fix passes given a caller-asserted validated attribute list.
//
// The handler captures an O(1) copy-on-write engine snapshot — the
// server lock is held only for the pointer-sized capture, never
// across a clone of master data — then fixes through
// internal/pipeline's sharded worker pool, so large batches neither
// serialize behind each other nor block interactive sessions, and
// concurrent rule/master mutations cannot race the in-flight batch.

// batchTupleResult is one tuple's outcome — the same record the async
// jobs subsystem writes to its results artifact, so a job's JSONL
// output is byte-identical per line to this endpoint's results array.
type batchTupleResult = jobs.TupleResult

// batchResponse is the endpoint's reply. The handler renders it
// incrementally with jobs.ResultEncoder rather than marshaling this
// struct (the pipeline recycles results out from under a retained
// slice); the type remains the authoritative wire shape, decoded by
// the API tests and pinned byte-for-byte against the encoder by the
// response regression test.
type batchResponse struct {
	Results []batchTupleResult `json:"results"`
	// FullyValidated counts tuples whose every attribute ended
	// validated.
	FullyValidated int `json:"fully_validated"`
	// CellsRewritten counts rule-made value changes.
	CellsRewritten int `json:"cells_rewritten"`
}

// fixBatch is the tuple sink of one POST /api/v1/fix: it copies each
// tuple out of the decoder's reused one into tuples[:n], which it keeps
// across requests through fixBatches, so a request allocates only the
// backing string the decoder makes per tuple.
type fixBatch struct {
	tuples []*schema.Tuple
	n      int
}

// Add implements tupleSink.
func (f *fixBatch) Add(tu *schema.Tuple) error {
	if f.n == len(f.tuples) {
		f.tuples = append(f.tuples, new(schema.Tuple))
	}
	dst := f.tuples[f.n]
	dst.Schema, dst.ID = tu.Schema, tu.ID
	dst.Vals = append(dst.Vals[:0], tu.Vals...)
	f.n++
	return nil
}

// Abort implements tupleSink.
func (f *fixBatch) Abort() { f.reset() }

// reset empties the batch, clearing the values of the tuples it took so
// that it does not pin the request's strings.
func (f *fixBatch) reset() {
	for _, tu := range f.tuples[:f.n] {
		clear(tu.Vals)
	}
	f.n = 0
}

// fixBatches recycles fixBatch tuples across requests. A batch goes
// back only when no pipeline reader can still read it; one that grew
// past maxPooledFixTuples is left to the collector.
var fixBatches = sync.Pool{New: func() any { return new(fixBatch) }}

const maxPooledFixTuples = 1 << 12

// release empties the batch and pools it.
func (f *fixBatch) release() {
	if len(f.tuples) > maxPooledFixTuples {
		return
	}
	f.reset()
	fixBatches.Put(f)
}

// fixBufs recycles /fix response buffers. One that grew past
// maxPooledFixBuf is left to the collector, so a rare huge batch does
// not stay pinned in the pool.
var fixBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledFixBuf = 1 << 20

func (s *Server) handleBatchFix(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	// The input schema is fixed when the system is built, so the body
	// is read before the server lock is taken.
	input := s.sys.InputSchema()
	batch := fixBatches.Get().(*fixBatch)
	// The batch goes back unless a pipeline run failed: Run does not
	// wait for its reader then, which may still be reading the tuples.
	pooled := true
	defer func() {
		if pooled {
			batch.release()
		}
	}()
	req := bodyReader{body: r.Body, dec: pipeline.NewTupleDecoder(input), sink: batch}
	if err := req.read(w, r); err != nil {
		writeDecodeErr(w, r, err) // the sink never fails: a body error
		return
	}
	if len(req.validated) == 0 {
		writeErr(w, r, http.StatusUnprocessableEntity, codeInvalidInput, fmt.Errorf("validated attribute list required"))
		return
	}
	if req.tuples == 0 {
		writeErr(w, r, http.StatusUnprocessableEntity, codeInvalidInput, fmt.Errorf("no tuples"))
		return
	}
	for _, a := range req.validated {
		if !input.Has(a) {
			writeErr(w, r, http.StatusUnprocessableEntity, codeInvalidInput, fmt.Errorf("unknown attribute %q", a))
			return
		}
	}
	if req.tupleErr != nil {
		writeErr(w, r, http.StatusUnprocessableEntity, codeInvalidInput, fmt.Errorf("tuple %d: %w", req.badTuple, req.tupleErr))
		return
	}
	// Freeze a consistent view — an O(1) COW capture; the lock only
	// pins the engine pointer against rule-set swaps — then fix
	// outside it.
	s.mu.Lock()
	eng := s.sys.SnapshotEngine()
	s.mu.Unlock()

	// The response is rendered incrementally per result through the
	// jobs ResultEncoder — byte-identical to writeJSON encoding a
	// batchResponse (the regression test pins this), but honoring the
	// pipeline's recycling contract: each result is serialized before
	// Write returns, so the run allocates O(window) instead of
	// materializing a TupleResult per tuple. The buffer is pooled.
	seed := schema.SetOfNames(input, req.validated...)
	enc := jobs.NewResultEncoder(input)
	bp := fixBufs.Get().(*[]byte)
	buf := append((*bp)[:0], `{"results":[`...)
	defer func() {
		if cap(buf) <= maxPooledFixBuf {
			*bp = buf
			fixBufs.Put(bp)
		}
	}()
	first := true
	sink := pipeline.SinkFunc(func(res *pipeline.Result) error {
		if !first {
			buf = append(buf, ',')
		}
		first = false
		buf = enc.Append(buf, res)
		return nil
	})
	stats, err := pipeline.Run(r.Context(), eng, seed, pipeline.NewSliceSource(batch.tuples[:batch.n]), sink, nil)
	if err != nil {
		pooled = false
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			// The per-request deadline (-request-timeout) expired
			// mid-run and the pipeline drained cleanly.
			writeErr(w, r, http.StatusGatewayTimeout, codeDeadlineExceeded,
				fmt.Errorf("batch fix exceeded the %s request deadline; reduce the batch or submit an async job", s.limits.RequestTimeout))
		case errors.Is(err, context.Canceled):
			// The client went away mid-run: the pipeline aborted with
			// its context, the gate slot is released by withSyncGate's
			// defer, and there is nobody to answer — just tag the
			// access-log line with why.
			metaFrom(r).code = "client_disconnect"
		default:
			writeErr(w, r, http.StatusInternalServerError, codeInternal, err)
		}
		return
	}
	// Feed the shed path's Retry-After estimate with real service time.
	s.fixTime.Observe(time.Since(start))
	buf = append(buf, `],"fully_validated":`...)
	buf = strconv.AppendInt(buf, int64(stats.FullyValidated), 10)
	buf = append(buf, `,"cells_rewritten":`...)
	buf = strconv.AppendInt(buf, int64(stats.CellsRewritten), 10)
	buf = append(buf, '}', '\n') // json.Encoder's trailing newline
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf)
}
