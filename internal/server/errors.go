package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
)

// This file defines the API's one error shape. Every handler, the
// panic-recovery middleware and the rate limiter answer failures with
// the same typed envelope,
//
//	{"error": {"code": "...", "message": "...", "request_id": "..."}}
//
// where code is a stable machine-readable identifier (clients switch
// on it; the message is for humans and may change), and request_id
// echoes the X-Request-Id the request was served under, so a client
// report can be joined against the access log.
//
// Status mapping is uniform across the surface:
//
//	400 invalid_argument   malformed body/query/path — not valid input
//	404 not_found          no such rule/session/job/tuple/route
//	409 conflict           valid request, wrong lifecycle state
//	413 body_too_large     request body past the -max-body cap
//	422 invalid_input      well-formed but semantically rejected
//	429 rate_limited       per-key token bucket empty
//	429 overloaded         sync fix concurrency cap reached
//	429 backlog_full       jobs queue at -max-queued-jobs
//	429 memory_pressure    heap past the soft watermark; submits shed
//	500 internal           server fault (I/O, panic)
//	503 jobs_disabled      daemon started without -jobs-dir
//	503 shutting_down      draining; queue closed
//	503 persistence_degraded  durable storage unhealthy; retry later
//	503 memory_degraded    heap past the hard watermark
//	504 deadline_exceeded  request ran past -request-timeout
//
// Every 429 and the persistence_degraded and memory_degraded 503s are
// sheds: Server.shed writes them all, counting each under its code and
// setting Retry-After (whole seconds, rounded up, minimum 1).

// The stable error codes.
const (
	codeInvalidArgument = "invalid_argument"
	codeInvalidInput    = "invalid_input"
	codeNotFound        = "not_found"
	codeConflict        = "conflict"
	codeRateLimited     = "rate_limited"
	codeOverloaded      = "overloaded"
	codeBacklogFull     = "backlog_full"
	codeInternal        = "internal"
	codeJobsDisabled    = "jobs_disabled"
	codeShuttingDown    = "shutting_down"
	// codePersistenceDegraded marks work refused because durable
	// storage is unhealthy (failed fsync, ENOSPC): job submissions are
	// shed rather than acknowledged into a journal that could lose
	// them, while read-only and in-memory work (sync /fix) continues.
	// The daemon recovers automatically once its health probe succeeds.
	codePersistenceDegraded = "persistence_degraded"
	// codeDeadlineExceeded: the handler ran past -request-timeout and
	// its per-request context expired mid-work, or its request body was
	// not read by then.
	codeDeadlineExceeded = "deadline_exceeded"
	// codeBodyTooLarge: the request body exceeded -max-body; the read
	// stopped at the cap, so the daemon never buffered the excess.
	codeBodyTooLarge = "body_too_large"
	// codeMemoryPressure / codeMemoryDegraded are the soft and hard
	// heap-watermark sheds (-mem-soft/-mem-hard): soft sheds new job
	// submits with 429, hard is the degraded 503 surfaced on /status.
	codeMemoryPressure = "memory_pressure"
	codeMemoryDegraded = "memory_degraded"
)

// errorBody is the envelope payload.
type errorBody struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	RequestID string `json:"request_id"`
}

// errorEnvelope is the wire shape of every non-2xx response.
type errorEnvelope struct {
	Error errorBody `json:"error"`
}

// reqMeta travels in the request context: the assigned request ID,
// plus the error code of the response (set by writeErr) for the
// access log's shed/fault column.
type reqMeta struct {
	id   string
	code string
}

type reqMetaKey struct{}

// metaFrom returns the request's meta, or a zero placeholder when the
// middleware chain is absent (direct handler tests).
func metaFrom(r *http.Request) *reqMeta {
	if m, ok := r.Context().Value(reqMetaKey{}).(*reqMeta); ok {
		return m
	}
	return &reqMeta{}
}

// withMeta stores meta in the request context.
func withMeta(r *http.Request, m *reqMeta) *http.Request {
	return r.WithContext(context.WithValue(r.Context(), reqMetaKey{}, m))
}

// writeDecodeErr classifies a request-body decode failure: a body the
// -max-body reader truncated is the typed 413, one whose read ran past
// the request deadline the typed 504; anything else is the plain 400
// malformed-body envelope.
func writeDecodeErr(w http.ResponseWriter, r *http.Request, err error) {
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &mbe):
		writeErr(w, r, http.StatusRequestEntityTooLarge, codeBodyTooLarge,
			fmt.Errorf("request body exceeds the %d-byte limit", mbe.Limit))
	case errors.Is(err, os.ErrDeadlineExceeded):
		writeErr(w, r, http.StatusGatewayTimeout, codeDeadlineExceeded,
			fmt.Errorf("request body not read within the request deadline"))
	default:
		writeErr(w, r, http.StatusBadRequest, codeInvalidArgument, err)
	}
}

// writeErr renders the typed envelope. All error paths funnel through
// here — writeError-style ad-hoc shapes are gone.
func writeErr(w http.ResponseWriter, r *http.Request, status int, code string, err error) {
	m := metaFrom(r)
	m.code = code
	writeJSON(w, status, errorEnvelope{Error: errorBody{
		Code:      code,
		Message:   err.Error(),
		RequestID: m.id,
	}})
}
