package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"cerfix/internal/admission"
)

// The middleware chain wraps the whole route table — outermost first:
//
//	request-ID injection → access logging → panic recovery →
//	per-key rate limiting → body cap → routes
//
// so every response (including sheds and panics) carries a request ID,
// appears in the access log with its status, duration and shed
// reason, and uses the typed error envelope. Per-request deadlines
// (withDeadline) are applied per route, not here, because streaming
// routes are exempt.

// chain assembles the middleware stack around the route mux.
func (s *Server) chain(next http.Handler) http.Handler {
	return s.requestIDMW(s.accessLogMW(s.recoverMW(s.rateLimitMW(s.bodyLimitMW(next)))))
}

// statusRecorder captures the response status and size for the access
// log, and whether the header was committed (the panic handler must
// not write a second status line into a half-sent response).
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusRecorder) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusRecorder) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Unwrap lets http.ResponseController reach the connection: the body
// reader sets its read deadline through it.
func (w *statusRecorder) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// requestIDMW assigns each request an ID — honoring a well-formed
// inbound X-Request-Id so callers can stitch distributed traces —
// and echoes it in the response header and every error envelope.
func (s *Server) requestIDMW(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if !validRequestID(id) {
			id = fmt.Sprintf("%s-%06d", s.idPrefix, s.reqSeq.Add(1))
		}
		m := &reqMeta{id: id}
		w.Header().Set("X-Request-Id", id)
		next.ServeHTTP(w, withMeta(r, m))
	})
}

// validRequestID accepts 1–64 characters of [A-Za-z0-9._-]; anything
// else (including header injection attempts) gets a server-assigned
// ID instead.
func validRequestID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// newIDPrefix seeds the per-process request-ID prefix.
func newIDPrefix() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "r0"
	}
	return hex.EncodeToString(b[:])
}

// accessLogMW emits one structured line per request: method, path,
// status, bytes, duration, request ID and — when the response was an
// error — its machine-readable code (the shed-reason column for
// 429s). Logging is off until SetAccessLog installs a logger.
func (s *Server) accessLogMW(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		if s.accessLog == nil {
			next.ServeHTTP(rec, r)
			return
		}
		start := time.Now()
		defer func() {
			m := metaFrom(r)
			line := fmt.Sprintf("access method=%s path=%s status=%d bytes=%d dur=%s req=%s",
				r.Method, r.URL.Path, rec.status, rec.bytes, time.Since(start).Round(time.Microsecond), m.id)
			if m.code != "" {
				line += " code=" + m.code
			}
			s.accessLog.Print(line)
		}()
		next.ServeHTTP(rec, r)
	})
}

// recoverMW converts a handler panic into a 500 envelope and keeps
// the server serving. A panic after the header is committed can only
// truncate the stream — the status is already on the wire.
func (s *Server) recoverMW(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p == http.ErrAbortHandler {
				panic(p)
			}
			s.logf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
			if rec, ok := w.(*statusRecorder); ok && rec.status != 0 {
				metaFrom(r).code = codeInternal
				return
			}
			writeErr(w, r, http.StatusInternalServerError, codeInternal,
				fmt.Errorf("internal server error"))
		}()
		next.ServeHTTP(w, r)
	})
}

// rateLimitMW spends one token from the caller's bucket (key =
// X-Api-Key, else client IP) and sheds with 429 rate_limited plus
// Retry-After when empty. A daemon started without -rate has no
// limiter and skips straight through.
func (s *Server) rateLimitMW(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.limiter == nil {
			next.ServeHTTP(w, r)
			return
		}
		ok, remaining, retry := s.limiter.Allow(clientKey(r), time.Now())
		w.Header().Set("X-RateLimit-Limit", strconv.Itoa(s.limiter.Burst()))
		w.Header().Set("X-RateLimit-Remaining", strconv.Itoa(remaining))
		if !ok {
			s.shed(w, r, codeRateLimited, retry,
				fmt.Errorf("rate limit exceeded (%g req/s per key, burst %d)", s.limiter.Rate(), s.limiter.Burst()))
			return
		}
		next.ServeHTTP(w, r)
	})
}

// clientKey identifies the caller for rate limiting: the API key when
// presented, else the client IP without the ephemeral port.
func clientKey(r *http.Request) string {
	if k := r.Header.Get("X-Api-Key"); k != "" {
		return "key:" + k
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return "ip:" + r.RemoteAddr
	}
	return "ip:" + host
}

// shedStatus lists every load-shedding reason — the error code the
// refused request receives — with the status it answers: 429 asks the
// client to come back shortly, 503 reports a degraded subsystem.
var shedStatus = map[string]int{
	codeRateLimited:         http.StatusTooManyRequests,
	codeOverloaded:          http.StatusTooManyRequests,
	codeBacklogFull:         http.StatusTooManyRequests,
	codeMemoryPressure:      http.StatusTooManyRequests,
	codeMemoryDegraded:      http.StatusServiceUnavailable,
	codePersistenceDegraded: http.StatusServiceUnavailable,
}

// memRetryAfter is the back-off memory sheds advertise: time for a GC
// cycle to return heap before the retry's own submit re-reads it.
const memRetryAfter = 2 * time.Second

// shed answers one refused request; every shed is written here. It
// counts the refusal under its code (admission.shed on /status), sets
// Retry-After to the estimate rounded up to whole seconds, minimum 1
// (Retry-After: 0 invites an immediate, equally doomed retry), and
// writes the envelope with the code's status.
func (s *Server) shed(w http.ResponseWriter, r *http.Request, code string, retry time.Duration, err error) {
	s.sheds[code].Inc()
	secs := int64((retry + time.Second - 1) / time.Second)
	w.Header().Set("Retry-After", strconv.FormatInt(max(secs, 1), 10))
	writeErr(w, r, shedStatus[code], code, err)
}

// bodyLimitMW caps every request body at -max-body via
// http.MaxBytesReader: the wrapped reader stops at the limit, so an
// oversized upload fails its decode with *http.MaxBytesError (mapped
// to the 413 envelope by writeDecodeErr) without the daemon ever
// buffering the excess.
func (s *Server) bodyLimitMW(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.limits.MaxBody > 0 && r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.limits.MaxBody)
		}
		next.ServeHTTP(w, r)
	})
}

// withDeadline bounds one request's handler with -request-timeout.
// The handler sees a context that expires at the deadline; handlers
// that consult it (the sync fix pipeline) classify the expiry
// themselves, and for any that return without writing after expiry
// this wrapper supplies the uniform 504 envelope. Streaming routes
// (job results) are mounted without it — an NDJSON download is
// allowed to outlive any fixed budget.
func (s *Server) withDeadline(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		d := s.limits.RequestTimeout
		if d <= 0 {
			next(w, r)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		rec := &statusRecorder{ResponseWriter: w}
		next(rec, r.WithContext(ctx))
		if rec.status == 0 && ctx.Err() == context.DeadlineExceeded {
			writeErr(rec, r, http.StatusGatewayTimeout, codeDeadlineExceeded,
				fmt.Errorf("request exceeded the %s deadline", d))
		}
	}
}

// withSyncGate caps concurrent synchronous fix runs. Past the cap the
// request sheds immediately — 429 overloaded with a Retry-After
// derived from the observed per-batch service time — instead of
// queueing the connection; completed runs feed that estimate.
func (s *Server) withSyncGate(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.fixGate == nil {
			next(w, r)
			return
		}
		if !s.fixGate.TryAcquire() {
			s.shed(w, r, codeOverloaded, admission.RetryAfter(1, s.fixGate.Capacity(), s.fixTime.Value()),
				fmt.Errorf("synchronous fix capacity (%d) saturated; retry or submit an async job", s.fixGate.Capacity()))
			return
		}
		defer s.fixGate.Release()
		if s.syncFixHook != nil {
			s.syncFixHook()
		}
		next(w, r)
	}
}

// logf writes to the configured error logger (default: the standard
// logger) — panics and internal faults, not access lines.
func (s *Server) logf(format string, args ...any) {
	if s.errorLog != nil {
		s.errorLog.Printf(format, args...)
		return
	}
	log.Printf(format, args...)
}
