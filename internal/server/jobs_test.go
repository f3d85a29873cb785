package server

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cerfix"
	"cerfix/internal/dataset"
	"cerfix/internal/jobs"
)

// jobsServer is demoServer plus an attached jobs manager over a temp
// jobs directory.
func jobsServer(t *testing.T) *httptest.Server {
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
	srv := New(sys)
	mgr, err := jobs.Open(jobs.Config{
		Dir:      t.TempDir(),
		Schema:   sys.InputSchema(),
		Snapshot: srv.SnapshotEngine,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close(context.Background()) })
	srv.AttachJobs(mgr)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// pollJobDone polls the status endpoint until the job is terminal.
func pollJobDone(t *testing.T, base, id string) jobJSON {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var j jobJSON
		doJSON(t, "GET", base+"/api/v1/jobs/"+id, nil, 200, &j)
		if j.State == "done" || j.State == "failed" || j.State == "cancelled" {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, j.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// The async acceptance path at the HTTP layer: a submitted job
// completes, and its JSONL results artifact is byte-identical, line
// for line, to the synchronous /api/v1/fix results array for the same
// input.
func TestJobsAPIMatchesSyncFix(t *testing.T) {
	ts := jobsServer(t)
	payload := map[string]any{
		"validated": []string{"zip", "phn", "type", "item"},
		"tuples": []map[string]string{
			dataset.DemoInputFig3().Map(),
			dataset.DemoInputExample1().Map(),
		},
	}

	// Synchronous reference, keeping each result's raw bytes.
	var syncResp struct {
		Results []json.RawMessage `json:"results"`
	}
	doJSON(t, "POST", ts.URL+"/api/v1/fix", payload, 200, &syncResp)
	if len(syncResp.Results) != 2 {
		t.Fatalf("sync results = %d", len(syncResp.Results))
	}

	// Async job over the same input.
	var j jobJSON
	doJSON(t, "POST", ts.URL+"/api/v1/jobs", payload, http.StatusAccepted, &j)
	if j.State != "queued" && j.State != "running" && j.State != "done" {
		t.Fatalf("submitted job state = %s", j.State)
	}
	j = pollJobDone(t, ts.URL, j.ID)
	if j.State != "done" || j.Processed != 2 {
		t.Fatalf("job = %+v", j)
	}
	if j.Stats == nil || j.Stats.Tuples != 2 {
		t.Fatalf("job stats = %+v", j.Stats)
	}

	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + j.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("results status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("results content-type = %q", ct)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != len(syncResp.Results) {
		t.Fatalf("artifact lines = %d, want %d", len(lines), len(syncResp.Results))
	}
	for i, raw := range syncResp.Results {
		if lines[i] != string(raw) {
			t.Fatalf("artifact line %d differs from sync result:\n got %s\nwant %s", i, lines[i], raw)
		}
	}
}

func TestJobsAPILifecycle(t *testing.T) {
	ts := jobsServer(t)

	// Empty list is an array, not null.
	resp, err := http.Get(ts.URL + "/api/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"items":[]`) {
		t.Fatalf("empty jobs list = %s", body)
	}

	// Bad submissions are rejected.
	doJSON(t, "POST", ts.URL+"/api/v1/jobs", map[string]any{
		"validated": []string{"zip"},
	}, http.StatusUnprocessableEntity, nil)
	doJSON(t, "POST", ts.URL+"/api/v1/jobs", map[string]any{
		"validated": []string{"bogus"},
		"tuples":    []map[string]string{dataset.DemoInputFig3().Map()},
	}, http.StatusUnprocessableEntity, nil)
	doJSON(t, "POST", ts.URL+"/api/v1/jobs", map[string]any{
		"validated":  []string{"zip"},
		"tuples":     []map[string]string{dataset.DemoInputFig3().Map()},
		"input_path": "/also/a/path.csv",
	}, http.StatusUnprocessableEntity, nil)

	// Unknown job IDs 404 on every per-job route.
	doJSON(t, "GET", ts.URL+"/api/v1/jobs/nope", nil, http.StatusNotFound, nil)
	doJSON(t, "GET", ts.URL+"/api/v1/jobs/nope/results", nil, http.StatusNotFound, nil)
	doJSON(t, "DELETE", ts.URL+"/api/v1/jobs/nope", nil, http.StatusNotFound, nil)

	// A good submission appears in the list and finishes.
	var j jobJSON
	doJSON(t, "POST", ts.URL+"/api/v1/jobs", map[string]any{
		"validated": []string{"zip", "phn", "type", "item"},
		"tuples":    []map[string]string{dataset.DemoInputFig3().Map()},
	}, http.StatusAccepted, &j)
	var list struct {
		Items []jobJSON `json:"items"`
		Total int       `json:"total"`
	}
	doJSON(t, "GET", ts.URL+"/api/v1/jobs", nil, 200, &list)
	if len(list.Items) != 1 || list.Items[0].ID != j.ID || list.Total != 1 {
		t.Fatalf("list = %+v", list)
	}
	done := pollJobDone(t, ts.URL, j.ID)
	if done.State != "done" {
		t.Fatalf("job ended %s (%s)", done.State, done.Error)
	}
	// DELETE on a finished job purges it: record and artifacts gone.
	var del struct {
		Deleted bool `json:"deleted"`
	}
	doJSON(t, "DELETE", ts.URL+"/api/v1/jobs/"+j.ID, nil, http.StatusOK, &del)
	if !del.Deleted {
		t.Fatalf("purge response = %+v", del)
	}
	doJSON(t, "GET", ts.URL+"/api/v1/jobs/"+j.ID, nil, http.StatusNotFound, nil)
	doJSON(t, "GET", ts.URL+"/api/v1/jobs/"+j.ID+"/results", nil, http.StatusNotFound, nil)
}

// Without -jobs-dir the endpoints answer 503, not 404: the routes
// exist, the subsystem is off.
func TestJobsAPIDisabled(t *testing.T) {
	ts := demoServer(t)
	doJSON(t, "GET", ts.URL+"/api/v1/jobs", nil, http.StatusServiceUnavailable, nil)
	doJSON(t, "POST", ts.URL+"/api/v1/jobs", map[string]any{
		"validated": []string{"zip"},
		"tuples":    []map[string]string{dataset.DemoInputFig3().Map()},
	}, http.StatusServiceUnavailable, nil)
}
