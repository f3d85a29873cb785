package faultfs

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// ErrDegraded marks an operation refused because persistence is in
// degraded mode. HTTP handlers map it to a typed 503
// persistence_degraded with a Retry-After.
var ErrDegraded = errors.New("persistence degraded")

// Health is the persistence health state machine. Every durable
// operation reports its outcome via ReportResult: a transient storage
// fault (see Transient) flips the state to degraded, a success flips
// it back to healthy. While degraded, Check fast-fails callers with
// ErrDegraded — keeping the in-memory serving paths alive instead of
// letting every request grind against a dead disk — and at most once
// per probe interval runs the configured probe; a successful probe
// restores healthy and lets the triggering caller proceed, so
// recovery is automatic the moment space (or the device) returns.
type Health struct {
	probe      func() error
	probeEvery time.Duration

	mu        sync.Mutex
	onChange  func(degraded bool, reason string)
	degraded  bool
	reason    string
	since     time.Time
	lastProbe time.Time
	flips     int64
}

// HealthStatus is the JSON shape surfaced under persistence.health on
// GET /api/v1/status.
type HealthStatus struct {
	// State is "ok" or "degraded".
	State string `json:"state"`
	// Reason is the storage error that triggered degradation.
	Reason string `json:"reason,omitempty"`
	// Degradations counts healthy→degraded transitions since start.
	Degradations int64 `json:"degradations"`
	// RetryAfterSeconds is the suggested client backoff while degraded.
	RetryAfterSeconds int `json:"retry_after_s,omitempty"`
}

// NewHealth builds a health tracker. probe is a cheap durable-write
// check (see DiskProbe) run at most once per probeEvery while
// degraded; nil disables probing (only ReportResult(nil) can then
// restore healthy).
func NewHealth(probe func() error, probeEvery time.Duration) *Health {
	if probeEvery <= 0 {
		probeEvery = 3 * time.Second
	}
	return &Health{probe: probe, probeEvery: probeEvery}
}

// SetOnChange registers a callback invoked (outside the lock) on
// every state transition — cerfixd logs them.
func (h *Health) SetOnChange(fn func(degraded bool, reason string)) {
	h.mu.Lock()
	h.onChange = fn
	h.mu.Unlock()
}

// ReportResult feeds the outcome of a durable operation. nil restores
// healthy; a Transient error degrades. Permanent errors (bad input,
// logic bugs) do not touch health — they are not the disk's fault.
func (h *Health) ReportResult(err error) {
	if err != nil && !Transient(err) {
		return
	}
	h.mu.Lock()
	var notify func(bool, string)
	var toDegraded bool
	var reason string
	if err == nil {
		if h.degraded {
			h.degraded = false
			h.reason = ""
			notify, toDegraded = h.onChange, false
		}
	} else {
		reason = err.Error()
		h.reason = reason
		if !h.degraded {
			h.degraded = true
			h.since = time.Now()
			h.lastProbe = time.Time{}
			h.flips++
			notify, toDegraded = h.onChange, true
		}
	}
	h.mu.Unlock()
	if notify != nil {
		notify(toDegraded, reason)
	}
}

// Check gates an operation on health. Healthy: returns nil. Degraded:
// if the probe interval has elapsed, runs the probe — on success the
// state flips to healthy and the caller proceeds; otherwise (probe
// failed, or not yet due) returns an error wrapping ErrDegraded.
func (h *Health) Check() error {
	h.mu.Lock()
	if !h.degraded {
		h.mu.Unlock()
		return nil
	}
	reason := h.reason
	due := h.probe != nil && time.Since(h.lastProbe) >= h.probeEvery
	if due {
		h.lastProbe = time.Now()
	}
	h.mu.Unlock()
	if due {
		if err := h.probe(); err == nil {
			h.ReportResult(nil)
			return nil
		} else if Transient(err) {
			h.ReportResult(err)
			reason = err.Error()
		}
	}
	return fmt.Errorf("%w: %s", ErrDegraded, reason)
}

// RetryAfter is the backoff to advertise to shed clients: the probe
// interval rounded up to whole seconds, minimum one, so a client that
// honors it never retries before the next probe is due.
func (h *Health) RetryAfter() time.Duration {
	if h.probeEvery <= time.Second {
		return time.Second
	}
	return (h.probeEvery + time.Second - 1).Truncate(time.Second)
}

// Status snapshots the state for /api/v1/status.
func (h *Health) Status() HealthStatus {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := HealthStatus{State: "ok", Degradations: h.flips}
	if h.degraded {
		st.State = "degraded"
		st.Reason = h.reason
		st.RetryAfterSeconds = int(h.RetryAfter() / time.Second)
	}
	return st
}

// DiskProbe returns a probe that proves dir can take a durable write:
// create a scratch file, write, fsync, remove.
func DiskProbe(fsys FS, dir string) func() error {
	return func() error {
		path := filepath.Join(dir, ".health-probe")
		f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write([]byte("ok\n")); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		return fsys.Remove(path)
	}
}
