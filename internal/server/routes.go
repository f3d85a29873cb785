package server

import (
	"fmt"
	"log"
	"net/http"
	"strings"
	"time"

	"cerfix/internal/admission"
)

// The API surface is one declarative route table mounted once, under
// the versioned prefix /api/v1. Every other path — the retired bare
// /api prefix included — answers the 404 not_found envelope.

// limitClass names the admission treatment a route gets beyond the
// global middleware chain (rate limiting applies to every class).
type limitClass int

const (
	// classRead and classMutate take no extra gating.
	classRead limitClass = iota
	classMutate
	// classSyncFix runs under the synchronous-fix concurrency gate
	// (-max-sync-fix): past the cap, requests shed with 429.
	classSyncFix
)

// route is one line of the API surface: method, path (under the
// prefix), limits class and handler. stream marks long-lived
// streaming responses, which are exempt from the per-request
// deadline.
type route struct {
	method string
	path   string
	class  limitClass
	stream bool
	h      http.HandlerFunc
}

// routeTable declares every endpoint once. Paths use net/http
// ServeMux patterns ({id} wildcards).
func (s *Server) routeTable() []route {
	return []route{
		{"GET", "/status", classRead, false, s.handleStatus},
		{"GET", "/rules", classRead, false, s.handleRulesList},
		{"POST", "/rules", classMutate, false, s.handleRulesAdd},
		{"DELETE", "/rules/{id}", classMutate, false, s.handleRulesDelete},
		{"POST", "/rules/check", classRead, false, s.handleRulesCheck},
		{"GET", "/regions", classRead, false, s.handleRegions},
		{"GET", "/master", classRead, false, s.handleMasterList},
		{"POST", "/master", classMutate, false, s.handleMasterAdd},
		{"POST", "/sessions", classMutate, false, s.handleSessionOpen},
		{"GET", "/sessions/{id}", classRead, false, s.handleSessionGet},
		{"POST", "/sessions/{id}/validate", classMutate, false, s.handleSessionValidate},
		{"GET", "/sessions/{id}/explain", classRead, false, s.handleSessionExplain},
		{"GET", "/audit/stats", classRead, false, s.handleAuditStats},
		{"GET", "/audit/tuples/{id}", classRead, false, s.handleAuditTuple},
		{"GET", "/audit/cell", classRead, false, s.handleAuditCell},
		{"POST", "/fix", classSyncFix, false, s.handleBatchFix},
		{"POST", "/jobs", classMutate, false, s.handleJobSubmit},
		{"GET", "/jobs", classRead, false, s.handleJobList},
		{"GET", "/jobs/{id}", classRead, false, s.handleJobGet},
		{"GET", "/jobs/{id}/results", classRead, true, s.handleJobResults},
		{"DELETE", "/jobs/{id}", classMutate, false, s.handleJobCancel},
	}
}

// Handler returns the HTTP surface: the route table mounted under
// /api/v1, wrapped in the admission middleware chain. Route-level
// decisions are made here, once: without a jobs manager every job
// route answers jobsDisabled.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range s.routeTable() {
		h := rt.h
		if s.jobs == nil && strings.HasPrefix(rt.path, "/jobs") {
			h = jobsDisabled
		}
		if rt.class == classSyncFix {
			h = s.withSyncGate(h)
		}
		if !rt.stream {
			h = s.withDeadline(h)
		}
		mux.HandleFunc(rt.method+" /api/v1"+rt.path, h)
	}
	// Unknown paths get the envelope too, not net/http's text 404.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeErr(w, r, http.StatusNotFound, codeNotFound,
			fmt.Errorf("no such endpoint: %s %s", r.Method, r.URL.Path))
	})
	return s.chain(mux)
}

// Limits configures the front door. Zero values disable each control,
// preserving the unlimited development behavior.
type Limits struct {
	// Rate admits this many requests/second per key (X-Api-Key or
	// client IP); 0 disables rate limiting.
	Rate float64
	// Burst is the token-bucket capacity per key (min 1 when rate
	// limiting is on).
	Burst int
	// MaxSyncFix caps concurrent POST /fix runs; 0 means unlimited.
	MaxSyncFix int
	// RequestTimeout bounds each non-streaming request's handler; the
	// expiry answer is the 504 deadline_exceeded envelope. 0 disables.
	RequestTimeout time.Duration
	// MaxBody caps request bodies in bytes (413 body_too_large past
	// it); 0 disables.
	MaxBody int64
}

// SetLimits installs the admission configuration. Call before
// Handler.
func (s *Server) SetLimits(l Limits) {
	s.limits = l
	if l.Rate > 0 {
		s.limiter = admission.NewLimiter(l.Rate, l.Burst)
	} else {
		s.limiter = nil
	}
	if l.MaxSyncFix > 0 {
		s.fixGate = admission.NewGate(l.MaxSyncFix)
	} else {
		s.fixGate = nil
	}
}

// SetAccessLog installs the structured per-request logger (nil keeps
// access logging off; panics always log to the error logger).
func (s *Server) SetAccessLog(l *log.Logger) { s.accessLog = l }

// SetErrorLog overrides the destination for panic and fault logs
// (default: the process-standard logger).
func (s *Server) SetErrorLog(l *log.Logger) { s.errorLog = l }
