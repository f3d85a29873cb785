package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
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

// postRaw sends a POST to path over a raw connection, announcing a
// body of n bytes, lets send write the body, and waits up to 3 s after
// send returns for the answer.
func postRaw(t *testing.T, base, path string, n int, send func(io.Writer) error) (int, []byte) {
	t.Helper()
	u, err := url.Parse(base)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", u.Host)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
		path, u.Host, n); err != nil {
		t.Fatal(err)
	}
	if err := send(conn); err != nil {
		t.Fatalf("sending the %d-byte %s body: %v", n, path, err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(3 * time.Second)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("no answer to a %d-byte %s body: %v", n, path, err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, got
}

// postStalled sends a POST of body to path over a raw connection,
// announcing its whole length but writing only the first head bytes,
// and then stalls: it waits up to 3 s for the answer without sending
// the rest.
func postStalled(t *testing.T, base, path string, body []byte, head int) (int, []byte) {
	t.Helper()
	return postRaw(t, base, path, len(body), func(w io.Writer) error {
		_, err := w.Write(body[:head])
		return err
	})
}

// A /fix body that stalls mid-upload answers the typed 504 at
// -request-timeout and returns its -max-sync-fix slot: the next /fix
// is served, not shed.
func TestStalledFixBodyReturns504(t *testing.T) {
	_, ts := guardServer(t, Limits{MaxSyncFix: 1, RequestTimeout: 200 * time.Millisecond})
	body := fixPayload()
	status, resp := postStalled(t, ts.URL, "/api/v1/fix", body, len(body)/2)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("stalled body: status = %d (%s), want 504", status, resp)
	}
	if env := decodeEnvelope(t, resp); env.Error.Code != codeDeadlineExceeded {
		t.Fatalf("stalled body: code = %q, want %q", env.Error.Code, codeDeadlineExceeded)
	}
	if status, resp, _ := doRaw(t, "POST", ts.URL+"/api/v1/fix", fixPayload(), nil); status != http.StatusOK {
		t.Fatalf("fix after a stalled body = %d (%s), want 200 (gate slot kept?)", status, resp)
	}
}

// jobsGuardServer is a demo server with a jobs manager of at most one
// queued job, under -request-timeout 200ms.
func jobsGuardServer(t *testing.T) (*jobs.Manager, string, *httptest.Server) {
	t.Helper()
	srv := New(demoSys(t))
	srv.SetLimits(Limits{RequestTimeout: 200 * time.Millisecond})
	dir := t.TempDir()
	mgr, err := jobs.Open(jobs.Config{Dir: dir, Schema: dataset.CustSchema(), Snapshot: srv.SnapshotEngine, MaxQueued: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close(context.Background()) })
	srv.AttachJobs(mgr)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return mgr, dir, ts
}

// windowJobBody is an inline job body of n Fig. 3 tuples, n enough to
// fill the body reader's first window twice over.
func windowJobBody() (body, tuple []byte, n int) {
	tuple, _ = json.Marshal(dataset.DemoInputFig3().Map())
	n = 2*maxWindow/len(tuple) + 1
	body = []byte(`{"validated":["zip","phn","type","item"],"tuples":[` +
		strings.Repeat(string(tuple)+",", n-1) + string(tuple) + `]}`)
	return body, tuple, n
}

// An inline job upload that stalls after its first window of tuples —
// the job directory and the backlog reservation exist by then —
// answers the typed 504 at -request-timeout and leaves neither behind:
// under MaxQueued 1 the next submit is accepted.
func TestStalledJobUploadReturns504(t *testing.T) {
	mgr, dir, ts := jobsGuardServer(t)
	body, tuple, _ := windowJobBody()
	head := maxWindow + len(tuple)/2
	status, resp := postStalled(t, ts.URL, "/api/v1/jobs", body, head)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("stalled upload: status = %d (%s), want 504", status, resp)
	}
	if env := decodeEnvelope(t, resp); env.Error.Code != codeDeadlineExceeded {
		t.Fatalf("stalled upload: code = %q, want %q", env.Error.Code, codeDeadlineExceeded)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("jobs directory after a stalled upload = %v (%v), want empty", entries, err)
	}
	if q := mgr.Stats().Queued; q != 0 {
		t.Fatalf("stalled upload left %d backlog reservations", q)
	}
	if status, resp, _ := doRaw(t, "POST", ts.URL+"/api/v1/jobs", fixPayload(), nil); status != http.StatusAccepted {
		t.Fatalf("submit after a stalled upload = %d (%s), want 202", status, resp)
	}
}

// An inline job upload that takes longer than -request-timeout, but
// never pauses that long, is accepted whole: on /jobs the deadline
// bounds a stall, not the upload.
func TestSlowJobUploadAccepted(t *testing.T) {
	mgr, _, ts := jobsGuardServer(t)
	body, _, n := windowJobBody()
	const pieces, gap = 16, 50 * time.Millisecond // 750 ms of gaps against a 200 ms deadline
	status, resp := postRaw(t, ts.URL, "/api/v1/jobs", len(body), func(w io.Writer) error {
		for i := range pieces {
			if i > 0 {
				time.Sleep(gap)
			}
			if _, err := w.Write(body[i*len(body)/pieces : (i+1)*len(body)/pieces]); err != nil {
				return err
			}
		}
		return nil
	})
	if status != http.StatusAccepted {
		t.Fatalf("slow upload: status = %d (%s), want 202", status, resp)
	}
	var j jobJSON
	if err := json.Unmarshal(resp, &j); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, err := mgr.Get(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.State.Terminal() {
			if got.State != jobs.StateDone || got.Processed != n {
				t.Fatalf("slow upload's job ended %s with %d of %d tuples", got.State, got.Processed, n)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("slow upload's job stuck in %s", got.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
