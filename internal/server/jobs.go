package server

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"time"

	"cerfix/internal/admission"
	"cerfix/internal/core"
	"cerfix/internal/faultfs"
	"cerfix/internal/guard"
	"cerfix/internal/jobs"
	"cerfix/internal/pipeline"
	"cerfix/internal/schema"
)

// This file exposes the async batch-repair job subsystem
// (internal/jobs) over HTTP. Where POST /api/v1/fix holds the
// connection open for the whole repair, /api/v1/jobs submits work to a
// persistent queue that survives daemon restarts:
//
//	POST   /api/v1/jobs              submit (inline tuples or server-side file)
//	GET    /api/v1/jobs              list all jobs, oldest first
//	GET    /api/v1/jobs/{id}         one job's lifecycle record
//	GET    /api/v1/jobs/{id}/results stream the JSONL results artifact
//	DELETE /api/v1/jobs/{id}         cancel a queued/running job; purge a
//	                                 terminal one (record + artifacts)
//
// Without a jobs manager (cerfixd run without -jobs-dir) Handler mounts
// jobsDisabled on every one of these routes instead.

// AttachJobs enables the /api/v1/jobs endpoints. Call before Handler.
func (s *Server) AttachJobs(m *jobs.Manager) { s.jobs = m }

// SnapshotEngine freezes a consistent engine view under the server
// lock — the jobs manager's per-run snapshot hook.
func (s *Server) SnapshotEngine() *core.Engine {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sys.SnapshotEngine()
}

// jobJSON is the wire shape of one job record (the journal's Input
// path stays server-side).
type jobJSON struct {
	ID        string     `json:"id"`
	State     string     `json:"state"`
	Validated []string   `json:"validated"`
	Format    string     `json:"format"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	Attempts  int        `json:"attempts"`
	Processed int        `json:"processed"`
	Error     string     `json:"error,omitempty"`
	// PanicStack is the journaled goroutine stack of a recovered
	// runner panic — present only on panic-failed jobs.
	PanicStack string          `json:"panic_stack,omitempty"`
	Stats      *pipeline.Stats `json:"stats,omitempty"`
}

func toJobJSON(j jobs.Job) jobJSON {
	out := jobJSON{
		ID:         j.ID,
		State:      string(j.State),
		Validated:  j.Validated,
		Format:     j.Format,
		Submitted:  j.Submitted,
		Attempts:   j.Attempts,
		Processed:  j.Processed,
		Error:      j.Error,
		PanicStack: j.PanicStack,
		Stats:      j.Stats,
	}
	if !j.Started.IsZero() {
		t := j.Started
		out.Started = &t
	}
	if !j.Finished.IsZero() {
		t := j.Finished
		out.Finished = &t
	}
	return out
}

// jobsDisabled answers every job route of a server with no jobs
// manager attached.
func jobsDisabled(w http.ResponseWriter, r *http.Request) {
	writeErr(w, r, http.StatusServiceUnavailable, codeJobsDisabled,
		fmt.Errorf("jobs disabled (start the daemon with -jobs-dir)"))
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	// Memory-pressure shedding, decided on a fresh heap sample before
	// the body is even decoded: a submission is deferrable work, and
	// admitting it under heap pressure only digs the hole deeper. Soft
	// pressure sheds with 429 (come back shortly); hard pressure is the
	// degraded 503.
	if s.memMon != nil {
		switch s.memMon.Poll() {
		case guard.PressureHard:
			ms := s.memMon.Status()
			s.shed(w, r, codeMemoryDegraded, memRetryAfter,
				fmt.Errorf("heap (%d bytes) past the hard watermark (%d); job submissions suspended", ms.HeapBytes, ms.HardBytes))
			return
		case guard.PressureSoft:
			ms := s.memMon.Status()
			s.shed(w, r, codeMemoryPressure, memRetryAfter,
				fmt.Errorf("heap (%d bytes) past the soft watermark (%d); new jobs shed until pressure recedes", ms.HeapBytes, ms.SoftBytes))
			return
		}
	}
	// The backlog, persistence and shutdown sheds are decided before a
	// body byte is read, for inline and input_path submits alike: under
	// overload the refusal must stay cheap.
	if err := s.jobs.Admit(); err != nil {
		s.writeSubmitErr(w, r, err)
		return
	}
	sub := &jobSubmit{m: s.jobs}
	defer sub.Abort()
	req := bodyReader{body: r.Body, dec: pipeline.NewTupleDecoder(s.jobs.Schema()), sink: sub, paths: true, stall: s.limits.RequestTimeout}
	if err := req.read(w, r); err != nil {
		s.writeSubmitErr(w, r, err)
		return
	}
	var (
		job jobs.Job
		err error
	)
	switch {
	case req.tuples > 0 && req.inputPath != "":
		writeErr(w, r, http.StatusUnprocessableEntity, codeInvalidInput,
			fmt.Errorf("give tuples or input_path, not both"))
		return
	case req.tupleErr != nil:
		err = jobs.InvalidTuple(req.badTuple, req.tupleErr)
	case req.tuples > 0:
		job, err = sub.sub.Commit(req.validated)
	case req.inputPath != "":
		job, err = s.jobs.SubmitFile(req.validated, req.inputPath, req.format)
	default:
		writeErr(w, r, http.StatusUnprocessableEntity, codeInvalidInput,
			fmt.Errorf("tuples or input_path required"))
		return
	}
	if err != nil {
		s.writeSubmitErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusAccepted, toJobJSON(job))
}

// writeSubmitErr answers a refused job submission.
func (s *Server) writeSubmitErr(w http.ResponseWriter, r *http.Request, err error) {
	// A full backlog is load shedding, not failure: 429 with a
	// Retry-After sized to the queue draining through the worker pool
	// at the observed per-job service time. A malformed body is 400
	// (413 past -max-body, 504 past the request deadline); client-side
	// rejections are 422; a shutting-down queue is 503. Unhealthy
	// persistence — the degraded fast-fail or a fresh transient storage
	// fault — is the typed 503 with a Retry-After, so clients back off
	// instead of hammering a full disk; anything else is a genuine
	// server fault.
	var bad errBody
	switch {
	case errors.As(err, &bad):
		writeDecodeErr(w, r, bad.err)
	case errors.Is(err, jobs.ErrInvalid):
		writeErr(w, r, http.StatusUnprocessableEntity, codeInvalidInput, err)
	case errors.Is(err, jobs.ErrBacklogFull):
		st := s.jobs.Stats()
		s.shed(w, r, codeBacklogFull, admission.RetryAfter(st.Queued+st.Running, st.Workers, st.AvgService()), err)
	case errors.Is(err, jobs.ErrClosed):
		writeErr(w, r, http.StatusServiceUnavailable, codeShuttingDown, err)
	case errors.Is(err, jobs.ErrDegraded), faultfs.Transient(err):
		var retry time.Duration // no health tracker: the 1 s minimum
		if s.persistHealth != nil {
			retry = s.persistHealth.RetryAfter()
		}
		s.shed(w, r, codePersistenceDegraded, retry, err)
	default:
		writeErr(w, r, http.StatusInternalServerError, codeInternal, err)
	}
}

// jobSubmit is the tuple sink of one inline POST /api/v1/jobs: the
// submission the body's tuples stream into, begun at the first tuple
// and appended to the job's input.jsonl as each one arrives.
type jobSubmit struct {
	m   *jobs.Manager
	sub *jobs.Inline
}

// Add implements tupleSink.
func (q *jobSubmit) Add(tu *schema.Tuple) error {
	if q.sub == nil {
		var err error
		if q.sub, err = q.m.BeginInline(); err != nil {
			return err
		}
	}
	return q.sub.Add(tu)
}

// Abort implements tupleSink: it abandons an uncommitted submission (a
// no-op after Commit).
func (q *jobSubmit) Abort() {
	if q.sub != nil {
		q.sub.Abort()
	}
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	limit, offset, err := pageParams(r, defaultPageLimit)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, codeInvalidArgument, err)
		return
	}
	list := s.jobs.List()
	total := len(list)
	out := make([]jobJSON, 0, limit)
	for i := offset; i < total && len(out) < limit; i++ {
		out = append(out, toJobJSON(list[i]))
	}
	writeJSON(w, http.StatusOK, listPage{Items: out, Total: total, Limit: limit, Offset: offset})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	job, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		writeErr(w, r, http.StatusNotFound, codeNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, toJobJSON(job))
}

func (s *Server) handleJobResults(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	path, err := s.jobs.ResultsPath(id)
	if err != nil {
		if errors.Is(err, jobs.ErrNotFound) {
			writeErr(w, r, http.StatusNotFound, codeNotFound, err)
		} else {
			writeErr(w, r, http.StatusConflict, codeConflict, err)
		}
		return
	}
	// Open before committing headers: a job that failed before
	// creating its artifact must answer 404, not an empty 200.
	f, err := os.Open(path)
	if err != nil {
		writeErr(w, r, http.StatusNotFound, codeNotFound, fmt.Errorf("job %s has no results artifact", id))
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/x-ndjson")
	// Errors past this point only truncate the stream; the status is
	// already committed. The copy loop checks the request context
	// between chunks so a disconnected client stops the stream at the
	// next boundary instead of pumping a large artifact into a dead
	// socket's buffers.
	buf := make([]byte, 32*1024)
	for {
		if r.Context().Err() != nil {
			metaFrom(r).code = "client_disconnect"
			return
		}
		n, rerr := f.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
		}
		if rerr != nil {
			return
		}
	}
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, err := s.jobs.Cancel(id)
	if errors.Is(err, jobs.ErrFinished) {
		// DELETE on a terminal job purges it — record, directory and
		// artifacts — so the persistent queue stays reclaimable.
		if err := s.jobs.Remove(id); err != nil {
			writeErr(w, r, http.StatusConflict, codeConflict, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"id": id, "deleted": true})
		return
	}
	if err != nil {
		if errors.Is(err, jobs.ErrNotFound) {
			writeErr(w, r, http.StatusNotFound, codeNotFound, err)
		} else {
			writeErr(w, r, http.StatusConflict, codeConflict, err)
		}
		return
	}
	writeJSON(w, http.StatusOK, toJobJSON(job))
}
