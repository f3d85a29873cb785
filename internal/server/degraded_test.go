package server

import (
	"bytes"
	"context"
	"encoding/json"
	"log"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"cerfix/internal/dataset"
	"cerfix/internal/faultfs"
	"cerfix/internal/jobs"
)

// syncBuffer is a goroutine-safe log sink (handler goroutines write
// while the test reads).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// degradedServer is a demo server whose jobs directory (the returned
// path) refuses writes and fsyncs with ENOSPC while the returned flag
// is set, its health probe due at most once per probeEvery.
func degradedServer(t *testing.T, probeEvery time.Duration) (*Server, *atomic.Bool, string) {
	t.Helper()
	sys := demoSys(t)
	srv := New(sys)
	dir := t.TempDir()
	inj := faultfs.NewInjector(faultfs.OS)
	failing := new(atomic.Bool)
	inj.SetFault(func(op faultfs.Op, path string) error {
		if failing.Load() && (op == faultfs.OpWrite || op == faultfs.OpSync) {
			return syscall.ENOSPC
		}
		return nil
	})
	health := faultfs.NewHealth(faultfs.DiskProbe(inj, dir), probeEvery)
	mgr, err := jobs.Open(jobs.Config{
		Dir:          dir,
		Schema:       sys.InputSchema(),
		Snapshot:     srv.SnapshotEngine,
		FS:           inj,
		Health:       health,
		RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close(context.Background()) })
	srv.AttachJobs(mgr)
	srv.SetPersistenceHealth(health)
	return srv, failing, dir
}

// TestPersistenceDegradedEndToEnd drives the full degraded-mode story
// through the HTTP surface: with the jobs directory refusing writes
// (injected ENOSPC), job submissions shed with the typed 503 and a
// Retry-After while the synchronous in-memory path keeps serving;
// /api/v1/status surfaces the degraded health and the access log records
// the shed; when the fault clears, the health probe readmits
// submissions with no restart and the queue drains normally.
func TestPersistenceDegradedEndToEnd(t *testing.T) {
	srv, failing, _ := degradedServer(t, 10*time.Millisecond)
	accessLog := &syncBuffer{}
	srv.SetAccessLog(log.New(accessLog, "", 0))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	payload := map[string]any{
		"validated": []string{"zip", "phn", "type", "item"},
		"tuples":    []map[string]string{dataset.DemoInputFig3().Map()},
	}

	// Disk goes bad. The first submit hits the fault on the way down
	// and degrades health; either way the client sees the typed 503.
	failing.Store(true)
	submit := func() *http.Response {
		t.Helper()
		resp, err := postJSON(ts.URL+"/api/v1/jobs", payload)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	assertDegraded := func(resp *http.Response) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("submit status = %d, want 503", resp.StatusCode)
		}
		var env errorEnvelope
		if err := decodeJSONBody(resp, &env); err != nil {
			t.Fatal(err)
		}
		if env.Error.Code != codePersistenceDegraded {
			t.Fatalf("error code = %q, want %q", env.Error.Code, codePersistenceDegraded)
		}
		ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil || ra < 1 {
			t.Fatalf("Retry-After = %q, want >= 1s", resp.Header.Get("Retry-After"))
		}
	}
	assertDegraded(submit())
	// Now degraded: the second submit fails fast (the gate, not the
	// disk) with the same typed shape.
	assertDegraded(submit())

	// The synchronous in-memory path is unaffected.
	var fix struct {
		Results []json.RawMessage `json:"results"`
	}
	doJSON(t, "POST", ts.URL+"/api/v1/fix", payload, 200, &fix)
	if len(fix.Results) != 1 {
		t.Fatalf("sync fix under degraded persistence returned %d results", len(fix.Results))
	}

	// Status surfaces the degradation.
	var status struct {
		Persistence *struct {
			Health *faultfs.HealthStatus `json:"health"`
		} `json:"persistence"`
	}
	doJSON(t, "GET", ts.URL+"/api/v1/status", nil, 200, &status)
	if status.Persistence == nil || status.Persistence.Health == nil ||
		status.Persistence.Health.State != "degraded" {
		t.Fatalf("status persistence = %+v", status.Persistence)
	}

	// Fault clears: the next due health probe readmits submissions.
	failing.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	var job jobJSON
	for {
		resp := submit()
		if resp.StatusCode == http.StatusAccepted {
			if err := decodeJSONBody(resp, &job); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			break
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatalf("submissions never recovered (last status %d)", resp.StatusCode)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := pollJobDone(t, ts.URL, job.ID); got.State != "done" {
		t.Fatalf("post-recovery job ended %s (%s)", got.State, got.Error)
	}

	doJSON(t, "GET", ts.URL+"/api/v1/status", nil, 200, &status)
	if status.Persistence.Health.State != "ok" || status.Persistence.Health.Degradations != 1 {
		t.Fatalf("status after recovery = %+v", status.Persistence.Health)
	}

	// The access log recorded the shed with its machine-readable code.
	if !strings.Contains(accessLog.String(), "code="+codePersistenceDegraded) {
		t.Fatalf("access log did not record the degraded shed:\n%s", accessLog.String())
	}
}

// A probe interval that is not a whole number of seconds must not be
// advertised truncated: with a 1500 ms interval, Retry-After: 1 would
// send an honoring client back before the next probe is due, only to
// be shed again. The header and /status retry_after_s both round up to
// 2, and every persistence_degraded 503 is counted under
// admission.shed.
func TestPersistenceDegradedRetryAfterRoundsUp(t *testing.T) {
	srv, failing, _ := degradedServer(t, 1500*time.Millisecond)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	failing.Store(true)
	body, _ := json.Marshal(map[string]any{
		"validated": []string{"zip", "phn", "type", "item"},
		"tuples":    []map[string]string{dataset.DemoInputFig3().Map()},
	})
	const submits = 3
	for i := 0; i < submits; i++ {
		status, b, hdr := doRaw(t, "POST", ts.URL+"/api/v1/jobs", body, nil)
		if status != http.StatusServiceUnavailable {
			t.Fatalf("submit %d = %d %s, want 503", i, status, b)
		}
		if env := decodeEnvelope(t, b); env.Error.Code != codePersistenceDegraded {
			t.Fatalf("submit %d code = %q", i, env.Error.Code)
		}
		if ra := hdr.Get("Retry-After"); ra != "2" {
			t.Fatalf("submit %d Retry-After = %q, want 2", i, ra)
		}
	}

	var st struct {
		Admission struct {
			Shed map[string]int64 `json:"shed"`
		} `json:"admission"`
		Persistence struct {
			Health faultfs.HealthStatus `json:"health"`
		} `json:"persistence"`
	}
	doJSON(t, "GET", ts.URL+"/api/v1/status", nil, 200, &st)
	if h := st.Persistence.Health; h.State != "degraded" || h.RetryAfterSeconds != 2 {
		t.Fatalf("persistence.health = %+v, want degraded with retry_after_s 2", h)
	}
	if n := st.Admission.Shed[codePersistenceDegraded]; n != submits {
		t.Fatalf("shed.persistence_degraded = %d, want %d", n, submits)
	}
}
