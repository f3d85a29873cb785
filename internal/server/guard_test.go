package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cerfix/internal/dataset"
	"cerfix/internal/guard"
	"cerfix/internal/jobs"
)

// This file exercises the runtime guardrails at the HTTP layer: the
// -max-body cap, the per-request deadline, client-disconnect cleanup
// of the sync-fix gate, and heap-watermark shedding of job submits.
// Run with -race: the disconnect test's whole point is that abandoned
// requests leak neither goroutines nor admission tokens.

// guardServer builds a demo server with the given limits.
func guardServer(t *testing.T, l Limits) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(demoSys(t))
	srv.SetLimits(l)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// An over-cap body answers the typed 413 on every decode site, and the
// daemon never buffers the excess; an in-cap request on the same
// server is untouched.
func TestBodyCapReturns413(t *testing.T) {
	_, ts := guardServer(t, Limits{MaxBody: 1024})

	big := []byte(`{"validated":["zip"],"tuples":[{"zip":"` + strings.Repeat("9", 4096) + `"}]}`)
	for _, path := range []string{"/api/v1/fix", "/api/v1/rules", "/api/v1/sessions"} {
		status, body, _ := doRaw(t, "POST", ts.URL+path, big, nil)
		if status != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status = %d, want 413", path, status)
		}
		if env := decodeEnvelope(t, body); env.Error.Code != codeBodyTooLarge {
			t.Fatalf("%s: code = %q, want %q", path, env.Error.Code, codeBodyTooLarge)
		}
	}

	// Within the cap the request proceeds normally.
	status, _, _ := doRaw(t, "POST", ts.URL+"/api/v1/fix", fixPayload(), nil)
	if status != http.StatusOK {
		t.Fatalf("in-cap fix status = %d, want 200", status)
	}

	// POST /jobs streams its tuples to disk, so its body crosses the
	// cap after the job directory exists. The 413 must leave the
	// directory empty and release the backlog reservation: under
	// MaxQueued 1, the next in-cap submit is accepted.
	srv := New(demoSys(t))
	srv.SetLimits(Limits{MaxBody: 1024})
	dir := t.TempDir()
	mgr, err := jobs.Open(jobs.Config{Dir: dir, Schema: dataset.CustSchema(), Snapshot: srv.SnapshotEngine, MaxQueued: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close(context.Background()) })
	srv.AttachJobs(mgr)
	jts := httptest.NewServer(srv.Handler())
	t.Cleanup(jts.Close)
	tuple, _ := json.Marshal(dataset.DemoInputFig3().Map())
	overCap := []byte(`{"validated":["zip","phn","type","item"],"tuples":[` +
		strings.Repeat(string(tuple)+",", 10) + string(tuple) + `]}`)
	status, body, _ := doRaw(t, "POST", jts.URL+"/api/v1/jobs", overCap, nil)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("/api/v1/jobs: status = %d (%s), want 413", status, body)
	}
	if env := decodeEnvelope(t, body); env.Error.Code != codeBodyTooLarge {
		t.Fatalf("/api/v1/jobs: code = %q, want %q", env.Error.Code, codeBodyTooLarge)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("jobs directory after 413 = %v (%v), want empty", entries, err)
	}
	if status, body, _ := doRaw(t, "POST", jts.URL+"/api/v1/jobs", fixPayload(), nil); status != http.StatusAccepted {
		t.Fatalf("in-cap submit after 413 = %d (%s), want 202", status, body)
	}
}

// A sync fix running past -request-timeout answers the typed 504; the
// next request on the same server succeeds (the gate slot came back).
func TestRequestDeadlineReturns504(t *testing.T) {
	srv, ts := guardServer(t, Limits{MaxSyncFix: 1, RequestTimeout: 20 * time.Millisecond})
	var slow atomic.Bool
	slow.Store(true)
	srv.syncFixHook = func() {
		if slow.Load() {
			time.Sleep(80 * time.Millisecond) // hold the run past the deadline
		}
	}

	status, body, _ := doRaw(t, "POST", ts.URL+"/api/v1/fix", fixPayload(), nil)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", status, body)
	}
	if env := decodeEnvelope(t, body); env.Error.Code != codeDeadlineExceeded {
		t.Fatalf("code = %q, want %q", env.Error.Code, codeDeadlineExceeded)
	}

	slow.Store(false)
	status, _, _ = doRaw(t, "POST", ts.URL+"/api/v1/fix", fixPayload(), nil)
	if status != http.StatusOK {
		t.Fatalf("post-timeout fix status = %d, want 200 (gate slot leaked?)", status)
	}
}

// A client that disconnects mid-fix must cancel the pipeline, release
// its sync-gate slot and leave no goroutines behind. The run is parked
// on a chaos stall, so only the disconnect can finish it.
func TestClientDisconnectReleasesGate(t *testing.T) {
	guard.SetChaos(true)
	defer guard.SetChaos(false)

	srv, ts := guardServer(t, Limits{MaxSyncFix: 1})
	_ = srv

	tuple := dataset.DemoInputFig3().Map()
	tuple["zip"] = guard.ChaosStallValue
	payload, _ := json.Marshal(map[string]any{
		"validated": []string{"phn", "type", "item"},
		"tuples":    []map[string]string{tuple},
	})

	before := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		guard.ArmStalls(1)
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/api/v1/fix", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		errCh := make(chan error, 1)
		go func() {
			_, err := http.DefaultClient.Do(req)
			errCh <- err
		}()
		time.Sleep(30 * time.Millisecond) // let the run park on the stall
		cancel()                          // client walks away
		if err := <-errCh; err == nil {
			t.Fatal("cancelled request reported no error")
		}

		// The slot must come back: with MaxSyncFix=1 a follow-up fix can
		// only succeed if the disconnect released the gate.
		deadline := time.Now().Add(5 * time.Second)
		for {
			status, body, _ := doRaw(t, "POST", ts.URL+"/api/v1/fix", fixPayload(), nil)
			if status == http.StatusOK {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d: gate never released: %d %s", round, status, body)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// No pipeline goroutines may survive the abandoned runs.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+4 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+4 {
		t.Fatalf("goroutines leaked across disconnects: before %d, after %d", before, after)
	}
}

// Heap-watermark shedding over HTTP: soft pressure sheds job submits
// with 429 memory_pressure + Retry-After: 2, hard pressure answers 503
// memory_degraded and shows on /status, and hysteresis recovery
// restores normal admission — all driven by a fake heap sampler that
// each submit and /status read polls.
func TestMemoryPressureShedsJobSubmits(t *testing.T) {
	sys := demoSys(t)
	srv := New(sys)
	mgr, err := jobs.Open(jobs.Config{Dir: t.TempDir(), Schema: sys.InputSchema(), Snapshot: srv.SnapshotEngine})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close(context.Background()) })
	srv.AttachJobs(mgr)

	var heap atomic.Uint64
	heap.Store(500)
	mon := guard.NewMemMonitor(guard.MemConfig{
		Soft:   1000,
		Hard:   2000,
		Sample: heap.Load,
	})
	srv.SetMemMonitor(mon)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	submit := func() (int, []byte, http.Header) {
		b, _ := json.Marshal(map[string]any{
			"validated": []string{"zip", "phn", "type", "item"},
			"tuples":    []map[string]string{dataset.DemoInputFig3().Map()},
		})
		return doRaw(t, "POST", ts.URL+"/api/v1/jobs", b, nil)
	}

	// Below the watermarks: normal admission.
	if status, body, _ := submit(); status != http.StatusAccepted {
		t.Fatalf("ok-state submit = %d %s", status, body)
	}

	// Past soft: 429 memory_pressure with a Retry-After.
	heap.Store(1500)
	status, body, hdr := submit()
	if status != http.StatusTooManyRequests {
		t.Fatalf("soft-state submit = %d %s, want 429", status, body)
	}
	if env := decodeEnvelope(t, body); env.Error.Code != codeMemoryPressure {
		t.Fatalf("soft code = %q", env.Error.Code)
	}
	if ra := hdr.Get("Retry-After"); ra != "2" {
		t.Fatalf("soft shed Retry-After = %q, want 2", ra)
	}

	// Past hard: 503 memory_degraded, and /status reports the state.
	heap.Store(2500)
	status, body, hdr = submit()
	if status != http.StatusServiceUnavailable {
		t.Fatalf("hard-state submit = %d %s, want 503", status, body)
	}
	if env := decodeEnvelope(t, body); env.Error.Code != codeMemoryDegraded {
		t.Fatalf("hard code = %q", env.Error.Code)
	}
	if ra := hdr.Get("Retry-After"); ra != "2" {
		t.Fatalf("hard shed Retry-After = %q, want 2", ra)
	}
	var st struct {
		Admission struct {
			Shed map[string]int64 `json:"shed"`
		} `json:"admission"`
		Guardrails struct {
			Memory *guard.MemStatus `json:"memory"`
		} `json:"guardrails"`
	}
	doJSON(t, "GET", ts.URL+"/api/v1/status", nil, 200, &st)
	if st.Guardrails.Memory == nil || st.Guardrails.Memory.State != "hard" {
		t.Fatalf("status guardrails.memory = %+v, want hard", st.Guardrails.Memory)
	}
	if st.Admission.Shed["memory_pressure"] != 1 || st.Admission.Shed["memory_degraded"] != 1 {
		t.Fatalf("shed counters = %v", st.Admission.Shed)
	}

	// Hysteresis recovery: the heap falls, the next /status read sees
	// pressure clear, and submits flow again.
	heap.Store(100)
	doJSON(t, "GET", ts.URL+"/api/v1/status", nil, 200, &st)
	if st.Guardrails.Memory.State != "ok" {
		t.Fatalf("status guardrails.memory = %+v after recovery, want ok", st.Guardrails.Memory)
	}
	if status, body, _ := submit(); status != http.StatusAccepted {
		t.Fatalf("recovered submit = %d %s, want 202", status, body)
	}
}

// /status surfaces the guardrail configuration even without a memory
// monitor attached.
func TestStatusGuardrailKeys(t *testing.T) {
	_, ts := guardServer(t, Limits{RequestTimeout: 2 * time.Second, MaxBody: 1 << 20})
	var raw map[string]json.RawMessage
	doJSON(t, "GET", ts.URL+"/api/v1/status", nil, 200, &raw)
	var gs map[string]any
	if err := json.Unmarshal(raw["guardrails"], &gs); err != nil {
		t.Fatalf("no guardrails block: %v", err)
	}
	if gs["request_timeout_ms"] != float64(2000) {
		t.Fatalf("request_timeout_ms = %v", gs["request_timeout_ms"])
	}
	if gs["max_body_bytes"] != float64(1<<20) {
		t.Fatalf("max_body_bytes = %v", gs["max_body_bytes"])
	}
	if _, ok := gs["memory"]; ok {
		t.Fatal("memory reported without a monitor")
	}
}

// The streaming results route is exempt from the request deadline: a
// download keeps flowing past -request-timeout.
func TestResultsStreamExemptFromDeadline(t *testing.T) {
	sys := demoSys(t)
	srv := New(sys)
	srv.SetLimits(Limits{RequestTimeout: 30 * time.Millisecond})
	mgr, err := jobs.Open(jobs.Config{Dir: t.TempDir(), Schema: sys.InputSchema(), Snapshot: srv.SnapshotEngine})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close(context.Background()) })
	srv.AttachJobs(mgr)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	var j jobJSON
	doJSON(t, "POST", ts.URL+"/api/v1/jobs", map[string]any{
		"validated": []string{"zip", "phn", "type", "item"},
		"tuples":    []map[string]string{dataset.DemoInputFig3().Map()},
	}, http.StatusAccepted, &j)
	j = pollJobDone(t, ts.URL, j.ID)
	if j.State != "done" {
		t.Fatalf("job = %+v", j)
	}
	// Fetch the artifact slower than the request deadline.
	time.Sleep(50 * time.Millisecond)
	resp, err := http.Get(fmt.Sprintf("%s/api/v1/jobs/%s/results", ts.URL, j.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("results status = %d", resp.StatusCode)
	}
}
