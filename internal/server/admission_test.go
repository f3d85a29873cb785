package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cerfix"
	"cerfix/internal/core"
	"cerfix/internal/dataset"
	"cerfix/internal/jobs"
)

// This file exercises the production front door end to end: the sync
// concurrency gate, per-key rate limiting, backlog shedding over HTTP,
// panic recovery, the typed error envelope, and the single /api/v1
// mount (the bare /api prefix answers 404). Run it with -race: the
// whole point is that admission state stays coherent under concurrent
// load.

// demoSys builds the standard demo system (schema + rules + master).
func demoSys(t *testing.T) *cerfix.System {
	t.Helper()
	sys, err := cerfix.New(dataset.CustSchema(), dataset.PersonSchema(), dataset.DemoRulesDSL)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range dataset.DemoMasterRows() {
		if err := sys.AddMasterRow(row.Strings()...); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

// fixPayload is a minimal valid POST /fix body.
func fixPayload() []byte {
	b, _ := json.Marshal(map[string]any{
		"validated": []string{"zip", "phn", "type", "item"},
		"tuples":    []map[string]string{dataset.DemoInputFig3().Map()},
	})
	return b
}

// doRaw issues one request and returns status, body and headers.
func doRaw(t *testing.T, method, url string, body []byte, hdr map[string]string) (int, []byte, http.Header) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b, resp.Header
}

// decodeEnvelope asserts a body is the typed error envelope and
// returns it.
func decodeEnvelope(t *testing.T, body []byte) errorEnvelope {
	t.Helper()
	var env errorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("not an error envelope: %v: %s", err, body)
	}
	if env.Error.Code == "" || env.Error.Message == "" || env.Error.RequestID == "" {
		t.Fatalf("incomplete envelope: %s", body)
	}
	return env
}

// The sync-fix gate admits at most K concurrent runs; excess requests
// shed immediately with a well-formed 429 overloaded envelope and a
// Retry-After, and never exceed K in flight under a concurrent blast.
func TestSyncFixConcurrencyCap(t *testing.T) {
	const gateCap = 2
	srv := New(demoSys(t))
	srv.SetLimits(Limits{MaxSyncFix: gateCap})

	block := make(chan struct{})
	entered := make(chan struct{}, 16)
	var gateHook atomic.Value // func()
	gateHook.Store(func() { entered <- struct{}{}; <-block })
	srv.syncFixHook = func() { gateHook.Load().(func())() }

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Fill the gate: two requests park inside it.
	var wg sync.WaitGroup
	for i := 0; i < gateCap; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, body, _ := doRaw(t, "POST", ts.URL+"/api/v1/fix", fixPayload(), nil)
			if status != 200 {
				t.Errorf("admitted fix = %d: %s", status, body)
			}
		}()
	}
	for i := 0; i < gateCap; i++ {
		<-entered
	}

	// The cap+1'th request sheds: 429 overloaded with Retry-After.
	status, body, hdr := doRaw(t, "POST", ts.URL+"/api/v1/fix", fixPayload(), nil)
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-cap fix = %d: %s", status, body)
	}
	env := decodeEnvelope(t, body)
	if env.Error.Code != codeOverloaded {
		t.Fatalf("code = %q, want %q", env.Error.Code, codeOverloaded)
	}
	if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want integer >= 1", hdr.Get("Retry-After"))
	}

	// Status reports the live occupancy and the shed.
	var st statusResponse
	doJSON(t, "GET", ts.URL+"/api/v1/status", nil, 200, &st)
	if st.Admission.SyncInFlight != gateCap || st.Admission.MaxSyncFix != gateCap {
		t.Fatalf("admission status = %+v", st.Admission)
	}
	if st.Admission.Shed[codeOverloaded].Load() != 1 {
		t.Fatalf("shed.overloaded = %d, want 1", st.Admission.Shed[codeOverloaded].Load())
	}

	close(block)
	wg.Wait()

	// Under a 16-way concurrent blast the observed in-flight count
	// never exceeds the cap, and every request either succeeds or
	// sheds 429.
	var cur, max, ok200, shed429 atomic.Int64
	gateHook.Store(func() {
		n := cur.Add(1)
		for {
			m := max.Load()
			if n <= m || max.CompareAndSwap(m, n) {
				break
			}
		}
		cur.Add(-1)
	})
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, body, _ := doRaw(t, "POST", ts.URL+"/api/v1/fix", fixPayload(), nil)
			switch status {
			case 200:
				ok200.Add(1)
			case http.StatusTooManyRequests:
				shed429.Add(1)
				decodeEnvelope(t, body)
			default:
				t.Errorf("unexpected status %d: %s", status, body)
			}
		}()
	}
	wg.Wait()
	if got := max.Load(); got > gateCap {
		t.Fatalf("max in-flight = %d, want <= %d", got, gateCap)
	}
	if ok200.Load()+shed429.Load() != 16 {
		t.Fatalf("200s %d + 429s %d != 16", ok200.Load(), shed429.Load())
	}
	if ok200.Load() == 0 {
		t.Fatal("blast admitted nothing")
	}
}

// A submission past -max-queued-jobs sheds over HTTP with 429
// backlog_full and a computed Retry-After, without growing the jobs
// directory; draining the backlog reopens admission.
func TestJobsBacklogShedOverHTTP(t *testing.T) {
	srv := New(demoSys(t))
	dir := t.TempDir()
	gate := make(chan struct{})
	mgr, err := jobs.Open(jobs.Config{
		Dir:    dir,
		Schema: dataset.CustSchema(),
		Snapshot: func() *core.Engine {
			<-gate
			return srv.SnapshotEngine()
		},
		MaxQueued: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	released := false
	release := func() {
		if !released {
			released = true
			close(gate)
		}
	}
	defer func() {
		release()
		mgr.Close(context.Background())
	}()
	srv.AttachJobs(mgr)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	submit := func() (int, []byte, http.Header) {
		body, _ := json.Marshal(map[string]any{
			"validated": []string{"zip", "phn", "type", "item"},
			"tuples":    []map[string]string{dataset.DemoInputFig3().Map()},
		})
		return doRaw(t, "POST", ts.URL+"/api/v1/jobs", body, nil)
	}

	// A occupies the runner (blocked at snapshot), B fills the queue.
	status, body, _ := submit()
	if status != http.StatusAccepted {
		t.Fatalf("submit A = %d: %s", status, body)
	}
	var a jobJSON
	_ = json.Unmarshal(body, &a)
	status, body, _ = submit()
	if status != http.StatusAccepted {
		t.Fatalf("submit B = %d: %s", status, body)
	}
	var b jobJSON
	_ = json.Unmarshal(body, &b)
	dirsBefore := countDirs(t, dir)

	// C sheds: 429 backlog_full, Retry-After, no new job directory.
	status, body, hdr := submit()
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-backlog submit = %d: %s", status, body)
	}
	env := decodeEnvelope(t, body)
	if env.Error.Code != codeBacklogFull {
		t.Fatalf("code = %q, want %q", env.Error.Code, codeBacklogFull)
	}
	if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want integer >= 1", hdr.Get("Retry-After"))
	}
	if got := countDirs(t, dir); got != dirsBefore {
		t.Fatalf("job dirs %d -> %d: shed touched disk", dirsBefore, got)
	}

	// Status reports the queue and the shed.
	var st statusResponse
	doJSON(t, "GET", ts.URL+"/api/v1/status", nil, 200, &st)
	if st.Jobs == nil || st.Jobs.Queued != 1 || st.Jobs.MaxQueued != 1 {
		t.Fatalf("jobs status = %+v", st.Jobs)
	}
	if st.Admission.Shed[codeBacklogFull].Load() != 1 {
		t.Fatalf("shed.backlog_full = %d, want 1", st.Admission.Shed[codeBacklogFull].Load())
	}

	// Draining reopens admission.
	release()
	pollJobDone(t, ts.URL, a.ID)
	pollJobDone(t, ts.URL, b.ID)
	status, body, _ = submit()
	if status != http.StatusAccepted {
		t.Fatalf("submit after drain = %d: %s", status, body)
	}
}

// discardLogger swallows injected-fault noise in panic tests.
func discardLogger() *log.Logger { return log.New(io.Discard, "", 0) }

// countDirs returns the number of subdirectories (job workspaces).
func countDirs(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if e.IsDir() {
			n++
		}
	}
	return n
}

// A handler panic becomes a 500 envelope, the server keeps serving,
// and the sync gate slot is released through the unwind.
func TestPanicRecoveryKeepsServing(t *testing.T) {
	srv := New(demoSys(t))
	srv.SetLimits(Limits{MaxSyncFix: 1})
	var boom atomic.Bool
	boom.Store(true)
	srv.syncFixHook = func() {
		if boom.Swap(false) {
			panic("injected fault")
		}
	}
	srv.SetErrorLog(discardLogger())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, body, _ := doRaw(t, "POST", ts.URL+"/api/v1/fix", fixPayload(), nil)
	if status != http.StatusInternalServerError {
		t.Fatalf("panicking fix = %d: %s", status, body)
	}
	env := decodeEnvelope(t, body)
	if env.Error.Code != codeInternal {
		t.Fatalf("code = %q, want %q", env.Error.Code, codeInternal)
	}

	// Still serving, and the single gate slot was not leaked: the next
	// fix is admitted and succeeds.
	doJSON(t, "GET", ts.URL+"/api/v1/status", nil, 200, nil)
	status, body, _ = doRaw(t, "POST", ts.URL+"/api/v1/fix", fixPayload(), nil)
	if status != 200 {
		t.Fatalf("fix after panic = %d: %s (gate slot leaked?)", status, body)
	}
}

// Rate limiting is per key: exhausting one API key's bucket sheds that
// key with 429 rate_limited while other keys stay admitted.
func TestRateLimitPerKey(t *testing.T) {
	srv := New(demoSys(t))
	srv.SetLimits(Limits{Rate: 0.001, Burst: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(key string) (int, []byte, http.Header) {
		hdr := map[string]string{}
		if key != "" {
			hdr["X-Api-Key"] = key
		}
		return doRaw(t, "GET", ts.URL+"/api/v1/rules", nil, hdr)
	}

	// Key A spends its burst of 2, then sheds.
	for i := 0; i < 2; i++ {
		status, body, hdr := get("alice")
		if status != 200 {
			t.Fatalf("request %d = %d: %s", i, status, body)
		}
		if got := hdr.Get("X-RateLimit-Remaining"); got != strconv.Itoa(1-i) {
			t.Fatalf("remaining after %d = %q", i+1, got)
		}
	}
	status, body, hdr := get("alice")
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-budget = %d: %s", status, body)
	}
	env := decodeEnvelope(t, body)
	if env.Error.Code != codeRateLimited {
		t.Fatalf("code = %q, want %q", env.Error.Code, codeRateLimited)
	}
	if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q", hdr.Get("Retry-After"))
	}

	// Key B is an independent bucket.
	if status, body, _ := get("bob"); status != 200 {
		t.Fatalf("other key = %d: %s", status, body)
	}
	// And key A stays shed.
	if status, _, _ := get("alice"); status != http.StatusTooManyRequests {
		t.Fatalf("spent key = %d, want 429", status)
	}

	// The shed counter shows up on status (read under a fresh key).
	var st statusResponse
	status, body, _ = doRaw(t, "GET", ts.URL+"/api/v1/status", nil,
		map[string]string{"X-Api-Key": "admin"})
	if status != 200 {
		t.Fatalf("status read = %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Admission.Shed[codeRateLimited].Load() < 2 {
		t.Fatalf("shed.rate_limited = %d, want >= 2", st.Admission.Shed[codeRateLimited].Load())
	}
	if st.Admission.RatePerKey != 0.001 || st.Admission.Burst != 2 {
		t.Fatalf("admission config = %+v", st.Admission)
	}
}

// The route table is mounted under /api/v1 only: every request that
// /api/v1 serves — success and error paths both — answers the 404
// not_found envelope under the retired bare /api prefix.
func TestAliasPrefixByteParity(t *testing.T) {
	ts := jobsServer(t)
	cases := []struct {
		method string
		path   string
		body   []byte
		status int // under /api/v1
	}{
		{"GET", "/status", nil, 200},
		{"GET", "/rules", nil, 200},
		{"GET", "/master", nil, 200},
		{"GET", "/jobs", nil, 200},
		{"GET", "/audit/stats", nil, 200},
		{"POST", "/fix", fixPayload(), 200},
		{"GET", "/jobs/nope", nil, 404},
		{"GET", "/sessions/bogus", nil, 400},
		{"POST", "/fix", []byte(`{"validated":[]`), 400},
	}
	for _, tc := range cases {
		if s, b, _ := doRaw(t, tc.method, ts.URL+"/api/v1"+tc.path, tc.body, nil); s != tc.status {
			t.Fatalf("%s /api/v1%s = %d, want %d: %s", tc.method, tc.path, s, tc.status, b)
		}
		s, b, _ := doRaw(t, tc.method, ts.URL+"/api"+tc.path, tc.body, nil)
		if s != http.StatusNotFound {
			t.Fatalf("%s /api%s = %d, want 404: %s", tc.method, tc.path, s, b)
		}
		if env := decodeEnvelope(t, b); env.Error.Code != codeNotFound {
			t.Fatalf("%s /api%s code = %q, want %q", tc.method, tc.path, env.Error.Code, codeNotFound)
		}
	}
}

// Every error answers the one envelope shape with its documented
// status and stable code.
func TestErrorEnvelopeTable(t *testing.T) {
	ts := jobsServer(t)
	plain := demoServer(t) // no jobs manager
	cases := []struct {
		name       string
		base       string
		method     string
		path       string
		body       []byte
		wantStatus int
		wantCode   string
	}{
		{"malformed body", ts.URL, "POST", "/api/v1/rules", []byte(`{`), 400, codeInvalidArgument},
		{"bad rule dsl", ts.URL, "POST", "/api/v1/rules", []byte(`{"dsl":"garbage"}`), 422, codeInvalidInput},
		{"unknown rule", ts.URL, "DELETE", "/api/v1/rules/nope", nil, 404, codeNotFound},
		{"bad session id", ts.URL, "GET", "/api/v1/sessions/abc", nil, 400, codeInvalidArgument},
		{"unknown session", ts.URL, "GET", "/api/v1/sessions/999", nil, 404, codeNotFound},
		{"bad page limit", ts.URL, "GET", "/api/v1/master?limit=-1", nil, 400, codeInvalidArgument},
		{"bad audit cell", ts.URL, "GET", "/api/v1/audit/cell?tuple=1&attr=", nil, 400, codeInvalidArgument},
		{"unknown route", ts.URL, "GET", "/api/v1/nope", nil, 404, codeNotFound},
		{"unknown job", ts.URL, "GET", "/api/v1/jobs/nope", nil, 404, codeNotFound},
		{"empty job submit", ts.URL, "POST", "/api/v1/jobs", []byte(`{}`), 422, codeInvalidInput},
		{"empty fix", ts.URL, "POST", "/api/v1/fix", []byte(`{"validated":["zip"],"tuples":[]}`), 422, codeInvalidInput},
		{"jobs disabled", plain.URL, "GET", "/api/v1/jobs", nil, 503, codeJobsDisabled},
	}
	for _, tc := range cases {
		status, body, _ := doRaw(t, tc.method, tc.base+tc.path, tc.body, nil)
		if status != tc.wantStatus {
			t.Errorf("%s: status = %d, want %d: %s", tc.name, status, tc.wantStatus, body)
			continue
		}
		env := decodeEnvelope(t, body)
		if env.Error.Code != tc.wantCode {
			t.Errorf("%s: code = %q, want %q", tc.name, env.Error.Code, tc.wantCode)
		}
	}
}

// The acceptance criterion end to end: a saturated limited server
// sheds overload with 429 + Retry-After, and the work it does admit
// returns bytes identical to an unlimited server's answer for the
// same input.
func TestSaturationAdmittedWorkByteIdentical(t *testing.T) {
	// Unlimited reference.
	ref := httptest.NewServer(New(demoSys(t)).Handler())
	defer ref.Close()
	_, want, _ := doRaw(t, "POST", ref.URL+"/api/v1/fix", fixPayload(), nil)

	// Limited server, gate capacity 1, first request parked inside.
	srv := New(demoSys(t))
	srv.SetLimits(Limits{MaxSyncFix: 1})
	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	var parked atomic.Bool
	parked.Store(true)
	srv.syncFixHook = func() {
		if parked.Swap(false) {
			entered <- struct{}{}
			<-block
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	done := make(chan []byte, 1)
	go func() {
		_, body, _ := doRaw(t, "POST", ts.URL+"/api/v1/fix", fixPayload(), nil)
		done <- body
	}()
	<-entered

	// Saturated: the second request sheds.
	status, body, hdr := doRaw(t, "POST", ts.URL+"/api/v1/fix", fixPayload(), nil)
	if status != http.StatusTooManyRequests {
		t.Fatalf("saturated fix = %d: %s", status, body)
	}
	decodeEnvelope(t, body)
	if hdr.Get("Retry-After") == "" {
		t.Fatal("shed without Retry-After")
	}

	// The admitted request's answer is byte-identical to the
	// unlimited server's, and so is the shed request once retried.
	close(block)
	if got := <-done; !bytes.Equal(got, want) {
		t.Fatalf("admitted body differs from unlimited reference:\n got  %s\n want %s", got, want)
	}
	status, got, _ := doRaw(t, "POST", ts.URL+"/api/v1/fix", fixPayload(), nil)
	if status != 200 || !bytes.Equal(got, want) {
		t.Fatalf("retried body = %d %s, want 200 %s", status, got, want)
	}
}

// The access log emits one structured line per request with status,
// duration, request ID — and the shed reason as its code column.
func TestAccessLogLines(t *testing.T) {
	srv := New(demoSys(t))
	srv.SetLimits(Limits{Rate: 0.001, Burst: 1})
	var buf bytes.Buffer
	srv.SetAccessLog(log.New(&buf, "", 0))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	doRaw(t, "GET", ts.URL+"/api/v1/status", nil, map[string]string{"X-Request-Id": "log-probe"})
	doRaw(t, "GET", ts.URL+"/api/v1/status", nil, nil) // bucket spent: shed

	out := buf.String()
	if !strings.Contains(out, "method=GET path=/api/v1/status status=200") ||
		!strings.Contains(out, "req=log-probe") || !strings.Contains(out, "dur=") {
		t.Fatalf("success line malformed:\n%s", out)
	}
	if !strings.Contains(out, "status=429") || !strings.Contains(out, "code=rate_limited") {
		t.Fatalf("shed line missing its reason:\n%s", out)
	}
}

// Request IDs: a well-formed inbound X-Request-Id is honored and
// echoed in both the response header and the error envelope; a
// missing or invalid one is replaced server-side.
func TestRequestIDPropagation(t *testing.T) {
	ts := demoServer(t)

	_, body, hdr := doRaw(t, "GET", ts.URL+"/api/v1/sessions/999", nil,
		map[string]string{"X-Request-Id": "trace-42"})
	if got := hdr.Get("X-Request-Id"); got != "trace-42" {
		t.Fatalf("echoed id = %q, want trace-42", got)
	}
	if env := decodeEnvelope(t, body); env.Error.RequestID != "trace-42" {
		t.Fatalf("envelope id = %q, want trace-42", env.Error.RequestID)
	}

	// Header-injection shaped IDs are rejected in favor of a
	// server-assigned one.
	_, body, hdr = doRaw(t, "GET", ts.URL+"/api/v1/sessions/999", nil,
		map[string]string{"X-Request-Id": "bad id!"})
	got := hdr.Get("X-Request-Id")
	if got == "" || got == "bad id!" {
		t.Fatalf("server-assigned id = %q", got)
	}
	if env := decodeEnvelope(t, body); env.Error.RequestID != got {
		t.Fatalf("envelope id %q != header id %q", env.Error.RequestID, got)
	}
}
