package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"cerfix"
	"cerfix/internal/core"
	"cerfix/internal/faultfs"
	"cerfix/internal/jobs"
	"cerfix/internal/monitor"
	"cerfix/internal/pipeline"
	"cerfix/internal/region"
	"cerfix/internal/schema"
	"cerfix/internal/server"
)

// The traced run attributes time to layers without instrumenting the
// program: after the end-to-end window it loads the same instance in
// process, sends a fixed sample of the workload's requests through
// Server.Handler().ServeHTTP, and right after each one replays that
// request's work through the public functions of each layer the
// handler calls, recording a span around every call. The replayed
// spans are children of the request's ServeHTTP span; what the
// ServeHTTP span is not covered by is its "unattributed" self time.

// span is one traced interval on the run's clock (nanoseconds since the
// workload started). Parent is the enclosing span's ID, or -1.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out. Only the
// replay goroutine uses it; work on pipeline goroutines is timed into
// local buffers and added after the run (tracedSource).
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name, req string, parent int) int {
	now := int64(time.Since(t.t0))
	return t.add(span{Parent: parent, Name: name, Req: req, Start: now, End: now})
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.t0)) }

// add appends a span whose bounds were measured elsewhere and returns
// its ID.
func (t *tracer) add(s span) int {
	s.ID = len(t.spans)
	t.spans = append(t.spans, s)
	return s.ID
}

func (t *tracer) record(name, req string, parent int, start, end time.Time) int {
	return t.add(span{Parent: parent, Name: name, Req: req, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

func (t *tracer) dur(id int) time.Duration {
	return time.Duration(t.spans[id].End - t.spans[id].Start)
}

// selfTimes sums, per span name, the count, total duration and self
// time: the duration minus the durations of its child spans.
func (t *tracer) selfTimes() map[string]*selfTime {
	children := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	out := map[string]*selfTime{}
	for i, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &selfTime{}
			out[s.Name] = st
		}
		d := time.Duration(s.End - s.Start)
		st.n++
		st.total += d
		st.self += d - children[i]
	}
	return out
}

type selfTime struct {
	n           int
	total, self time.Duration
}

// countingFS counts what the jobs manager asks of the disk. It wraps
// the real filesystem and is passed as jobs.Config.FS.
type countingFS struct {
	faultfs.FS
	written, syncs, syncNS atomic.Int64
}

func (c *countingFS) reset() {
	c.written.Store(0)
	c.syncs.Store(0)
	c.syncNS.Store(0)
}

func (c *countingFS) OpenFile(name string, flag int, perm iofs.FileMode) (faultfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, c: c}, nil
}

func (c *countingFS) WriteFile(name string, data []byte, perm iofs.FileMode) error {
	c.written.Add(int64(len(data)))
	return c.FS.WriteFile(name, data, perm)
}

func (c *countingFS) SyncDir(dir string) error {
	t := time.Now()
	err := c.FS.SyncDir(dir)
	c.syncs.Add(1)
	c.syncNS.Add(int64(time.Since(t)))
	return err
}

type countingFile struct {
	faultfs.File
	c *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.c.written.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	t := time.Now()
	err := f.File.Sync()
	f.c.syncs.Add(1)
	f.c.syncNS.Add(int64(time.Since(t)))
	return err
}

// replayer sends sampled requests through the in-process handler and
// replays each one's layer calls.
type replayer struct {
	cfg   config
	in    *inputs
	sys   *cerfix.System
	h     http.Handler
	mgr   *jobs.Manager
	cfs   *countingFS
	jobs  string // the in-process manager's jobs directory
	mon   *monitor.Monitor
	tr    *tracer
	t     tally
	input *schema.Schema

	serve    map[string][]time.Duration // in-process ServeHTTP per route
	requests int

	sessions, rounds          int
	fixTuples, jobTuples      int
	covers                    time.Duration
	coversN                   int
	addMaster                 []time.Duration
	jobWait, jobRun, jobFetch []time.Duration
	jobSyncs, jobSyncNS       int64
	jobWritten, jobInBytes    int64
	artifactBytes             int64
	scanBytes                 int64
	scanTime                  time.Duration
}

// serveHTTP sends one request through the handler under a root span
// named after its route and returns the recorder and the span. size
// pre-sizes the recorded body, so a large response is not timed
// growing a buffer the loopback client never grows.
func (rp *replayer) serveHTTP(route, method, path string, body []byte, size int) (*httptest.ResponseRecorder, int) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	rec.Body = bytes.NewBuffer(make([]byte, 0, size))
	start := time.Now()
	rp.h.ServeHTTP(rec, req)
	end := time.Now()
	rp.requests++
	rp.t.attempted++
	id := rp.tr.record("server.ServeHTTP "+route, rec.Header().Get("X-Request-Id"), -1, start, end)
	rp.serve[route] = append(rp.serve[route], end.Sub(start))
	return rec, id
}

func (rp *replayer) expect(rec *httptest.ResponseRecorder, route string, status int) bool {
	if rec.Code != status {
		rp.t.fail("in-process %s: status %d (want %d): %.300s", route, rec.Code, status, rec.Body.Bytes())
		return false
	}
	return true
}

func (rp *replayer) req(id int) string { return rp.tr.spans[id].Req }

// decode times encoding/json decoding body into the handler's request
// shape, as the handler does it (unknown fields rejected).
func (rp *replayer) decode(parent int, body []byte, v any) bool {
	id := rp.tr.begin("json.Decode", rp.req(parent), parent)
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	rp.tr.end(id)
	if err != nil {
		rp.t.fail("replay decode: %v", err)
		return false
	}
	return true
}

// session replays one oracle session: each request through ServeHTTP,
// then the same step through the monitor directly.
func (rp *replayer) session(body []byte, truth []string) {
	rec, root := rp.serveHTTP("POST /sessions", "POST", "/api/v1/sessions", body, 1<<10)
	if !rp.expect(rec, "POST /sessions", http.StatusCreated) {
		return
	}
	var sv sessionView
	if err := json.Unmarshal(rec.Body.Bytes(), &sv); err != nil {
		rp.t.fail("replay session: %v", err)
		return
	}
	rid := rp.req(root)
	// After a master insert the open above rebuilt the regions under the
	// server lock: replay that precompute as the request's child, then
	// follow the monitor the server now uses.
	if prev := rp.mon; rp.sys.Monitor() != prev {
		id := rp.tr.begin("region.TopK", rid, root)
		region.NewFinder(rp.sys.Engine()).TopK(nil)
		rp.tr.end(id)
		rp.mon = rp.sys.Monitor()
	}
	var open struct {
		Tuple map[string]string `json:"tuple"`
	}
	if !rp.decode(root, body, &open) {
		return
	}
	id := rp.tr.begin("monitor.NewSession", rid, root)
	tu, err := schema.TupleFromMap(rp.input, open.Tuple)
	var sess *monitor.Session
	if err == nil {
		sess, err = rp.mon.NewSession(tu)
	}
	rp.tr.end(id)
	if err != nil {
		rp.t.fail("replay NewSession: %v", err)
		return
	}
	for _, reg := range rp.mon.Regions() {
		t := time.Now()
		reg.Covers(tu)
		rp.covers += time.Since(t)
		rp.coversN++
	}
	id = rp.tr.begin("monitor.Suggestion", rid, root)
	sess.Suggestion()
	rp.tr.end(id)
	rp.sessions++
	path := "/api/v1/sessions/" + strconv.FormatInt(sv.ID, 10)
	for round := 0; !sv.Done; round++ {
		if round >= len(rp.in.attrs) || len(sv.Suggestion) == 0 {
			rp.t.fail("replay session %d: not done after %d rounds", sv.ID, round)
			return
		}
		as := map[string]string{}
		for _, a := range sv.Suggestion {
			as[a] = truth[rp.in.attrIdx[a]]
		}
		b, err := json.Marshal(map[string]any{"assertions": as})
		if err != nil {
			rp.t.fail("replay session: %v", err)
			return
		}
		rec, root := rp.serveHTTP("POST /sessions/{id}/validate", "POST", path+"/validate", b, 1<<10)
		if !rp.expect(rec, "POST /sessions/{id}/validate", http.StatusOK) {
			return
		}
		var v struct {
			Session sessionView `json:"session"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			rp.t.fail("replay validate: %v", err)
			return
		}
		sv = v.Session
		var vreq struct {
			Assertions map[string]string `json:"assertions"`
		}
		if !rp.decode(root, b, &vreq) {
			return
		}
		rid := rp.req(root)
		id := rp.tr.begin("monitor.Validate", rid, root)
		_, err = sess.Validate(vreq.Assertions)
		rp.tr.end(id)
		if err != nil {
			rp.t.fail("replay Validate: %v", err)
			return
		}
		id = rp.tr.begin("monitor.Suggestion", rid, root)
		sess.Suggestion()
		rp.tr.end(id)
		rp.rounds++
	}
	if !sv.Certain || !sess.Certain() {
		rp.t.fail("replay session %d: not certain", sv.ID)
	} else if err := rp.in.checkTuple(sv.Tuple, truth); err != nil {
		rp.t.fail("replay session %d: %v", sv.ID, err)
	}
	rec, _ = rp.serveHTTP("GET /sessions/{id}", "GET", path, nil, 1<<10)
	rp.expect(rec, "GET /sessions/{id}", http.StatusOK)
}

// tracedSource wraps the batch's tuple source and times every Next into
// a local buffer, turned into spans once the run returns. The source
// runs on the pipeline's reader goroutine, and the sink's timings are
// buffered the same way: taking the tracer's lock per tuple would cost
// more than the calls it measures.
type tracedSource struct {
	src   pipeline.Source
	t0    time.Time
	calls [][2]int64
}

func (s *tracedSource) Next() (*schema.Tuple, error) {
	start := int64(time.Since(s.t0))
	t, err := s.src.Next()
	s.calls = append(s.calls, [2]int64{start, int64(time.Since(s.t0))})
	return t, err
}

// fixBatch replays one /fix: ServeHTTP (twice for the first batch, which
// must answer identical bytes), then decode, snapshot, tuple build and
// pipeline.Run with traced source and sink, whose ResultEncoder output
// must equal the handler's response byte for byte.
func (rp *replayer) fixBatch(start, n int, twice bool) {
	body := rp.in.fixBody(nil, start, n)
	rec, root := rp.serveHTTP("POST /fix", "POST", "/api/v1/fix", body, 512*n)
	if !rp.expect(rec, "POST /fix", http.StatusOK) {
		return
	}
	got := rec.Body.Bytes()
	if twice {
		again := httptest.NewRecorder()
		rp.h.ServeHTTP(again, httptest.NewRequest("POST", "/api/v1/fix", bytes.NewReader(body)))
		rp.t.attempted++
		if !bytes.Equal(got, again.Body.Bytes()) {
			rp.t.fail("the same /fix batch answered different bytes on a second ServeHTTP")
		}
	}
	var out struct {
		Results []fixedTuple `json:"results"`
	}
	if err := json.Unmarshal(got, &out); err != nil {
		rp.t.fail("replay fix: %v", err)
		return
	}
	if err := rp.in.checkFixed(out.Results, start); err != nil {
		rp.t.fail("replay fix: %v", err)
	}
	var req struct {
		Validated []string            `json:"validated"`
		Tuples    []map[string]string `json:"tuples"`
	}
	if !rp.decode(root, body, &req) {
		return
	}
	rid := rp.req(root)
	id := rp.tr.begin("cerfix.SnapshotEngine", rid, root)
	eng := rp.sys.SnapshotEngine()
	rp.tr.end(id)
	id = rp.tr.begin("schema.TupleFromMap", rid, root)
	tuples := make([]*schema.Tuple, len(req.Tuples))
	for i, m := range req.Tuples {
		t, err := schema.TupleFromMap(rp.input, m)
		if err != nil {
			rp.tr.end(id)
			rp.t.fail("replay fix: %v", err)
			return
		}
		tuples[i] = t
	}
	rp.tr.end(id)
	enc := jobs.NewResultEncoder(rp.input)
	const head = `{"results":[`
	buf := append(make([]byte, 0, len(got)), head...)
	var writes [][3]int64 // per result: sink start, Append start, end of both
	sink := pipeline.SinkFunc(func(r *pipeline.Result) error {
		s := int64(time.Since(rp.tr.t0))
		if len(buf) > len(head) {
			buf = append(buf, ',')
		}
		a := int64(time.Since(rp.tr.t0))
		buf = enc.Append(buf, r)
		writes = append(writes, [3]int64{s, a, int64(time.Since(rp.tr.t0))})
		return nil
	})
	src := &tracedSource{src: pipeline.NewSliceSource(tuples), t0: rp.tr.t0}
	run := rp.tr.begin("pipeline.Run", rid, root)
	stats, err := pipeline.Run(context.Background(), eng, schema.SetOfNames(rp.input, req.Validated...), src, sink, nil)
	rp.tr.end(run)
	if err != nil {
		rp.t.fail("replay pipeline.Run: %v", err)
		return
	}
	for _, c := range src.calls {
		rp.tr.add(span{Parent: run, Name: "pipeline.Source", Req: rid, Start: c[0], End: c[1]})
	}
	for _, w := range writes {
		id := rp.tr.add(span{Parent: run, Name: "pipeline.Sink", Req: rid, Start: w[0], End: w[2]})
		rp.tr.add(span{Parent: id, Name: "jobs.ResultEncoder.Append", Req: rid, Start: w[1], End: w[2]})
	}
	buf = append(buf, `],"fully_validated":`...)
	buf = strconv.AppendInt(buf, int64(stats.FullyValidated), 10)
	buf = append(buf, `,"cells_rewritten":`...)
	buf = strconv.AppendInt(buf, int64(stats.CellsRewritten), 10)
	buf = append(buf, "}\n"...)
	if !bytes.Equal(buf, got) {
		rp.t.fail("/fix response bytes differ from pipeline.Run + ResultEncoder output")
	}
	rp.fixTuples += n
}

// job replays one job: submit through ServeHTTP, the journal's queue
// and run intervals, the results fetch, a JSONL scan of the job's
// materialized input, and Manager.SubmitInline called directly.
func (rp *replayer) job(k int) {
	n := rp.cfg.jobTuples
	start := (k * n) % len(rp.in.fixEnc)
	body := rp.in.fixBody(nil, start, n)
	rp.cfs.reset()
	rec, root := rp.serveHTTP("POST /jobs", "POST", "/api/v1/jobs", body, 1<<10)
	if !rp.expect(rec, "POST /jobs", http.StatusAccepted) {
		return
	}
	var j struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &j); err != nil {
		rp.t.fail("replay job: %v", err)
		return
	}
	rid := rp.req(root)
	job, err := rp.waitJob(j.ID)
	if err != nil {
		rp.t.fail("replay job: %v", err)
		return
	}
	// The queue wait and the run happen after the submit answered, so
	// they are roots of their own, tied to the submit by request ID.
	rp.tr.record("jobs.queue_wait", rid, -1, job.Submitted, job.Started)
	rp.tr.record("jobs.run", rid, -1, job.Started, job.Finished)
	rp.jobWait = append(rp.jobWait, job.Started.Sub(job.Submitted))
	rp.jobRun = append(rp.jobRun, job.Finished.Sub(job.Started))
	rp.jobSyncs += rp.cfs.syncs.Load()
	rp.jobSyncNS += rp.cfs.syncNS.Load()
	rp.jobWritten += rp.cfs.written.Load()
	rp.jobInBytes += int64(len(body))

	rec, fetch := rp.serveHTTP("GET /jobs/{id}/results", "GET", "/api/v1/jobs/"+j.ID+"/results", nil, 512*n)
	if rp.expect(rec, "GET /jobs/{id}/results", http.StatusOK) {
		rp.jobFetch = append(rp.jobFetch, rp.tr.dur(fetch))
		rp.artifactBytes += int64(rec.Body.Len())
		if err := rp.in.checkArtifact(rec.Body.Bytes(), start, n); err != nil {
			rp.t.fail("replay job %s: %v", j.ID, err)
		}
	}
	if err := rp.scanInput(filepath.Join(rp.jobs, j.ID, "input.jsonl")); err != nil {
		rp.t.fail("replay job %s: %v", j.ID, err)
	}

	var req struct {
		Validated []string            `json:"validated"`
		Tuples    []map[string]string `json:"tuples"`
	}
	if rp.decode(root, body, &req) {
		id := rp.tr.begin("jobs.Manager.SubmitInline", rid, root)
		direct, err := rp.mgr.SubmitInline(req.Validated, req.Tuples)
		rp.tr.end(id)
		if err == nil {
			_, err = rp.waitJob(direct.ID)
		}
		if err == nil {
			err = rp.mgr.Remove(direct.ID)
		}
		if err != nil {
			rp.t.fail("replay SubmitInline: %v", err)
		}
	}
	if err := rp.mgr.Remove(j.ID); err != nil {
		rp.t.fail("replay job remove: %v", err)
	}
	rp.jobTuples += n
}

func (rp *replayer) waitJob(id string) (jobs.Job, error) {
	for {
		j, err := rp.mgr.Get(id)
		if err != nil {
			return j, err
		}
		switch j.State {
		case jobs.StateDone:
			return j, nil
		case jobs.StateFailed, jobs.StateCancelled:
			return j, fmt.Errorf("job %s %s: %s", id, j.State, j.Error)
		}
		time.Sleep(time.Millisecond)
	}
}

// scanInput decodes a JSONL input through the pipeline's source alone.
func (rp *replayer) scanInput(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	t := time.Now()
	src := pipeline.NewJSONLSource(rp.input, bufio.NewReaderSize(f, 1<<16))
	for {
		if _, err := src.Next(); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return err
		}
	}
	rp.scanTime += time.Since(t)
	rp.scanBytes += st.Size()
	return nil
}

// insert replays one churn write: AddMasterRow of a held-back entity,
// then a session on it, whose open rebuilds the regions.
func (rp *replayer) insert(h heldEntity) {
	row := make([]string, 0, len(h.master))
	for _, a := range rp.sys.MasterSchema().AttrNames() {
		row = append(row, h.master[a])
	}
	t := time.Now()
	err := rp.sys.AddMasterRow(row...)
	rp.addMaster = append(rp.addMaster, time.Since(t))
	rp.t.attempted++
	if err != nil {
		rp.t.fail("replay AddMasterRow: %v", err)
		return
	}
	rp.session(h.sessEnc, h.truth)
}

// chaseProbe times the compiled chase alone (AcquireChaser, ChaseInto,
// Release) on the /fix form of sample tuples, then chases them again
// untimed to count rule work.
func (rp *replayer) chaseProbe(rep *report) error {
	n := min(4096, len(rp.in.fixEnc))
	tuples := make([]*schema.Tuple, n)
	for i := range tuples {
		var m map[string]string
		if err := json.Unmarshal(rp.in.fixEnc[i], &m); err != nil {
			return err
		}
		t, err := schema.TupleFromMap(rp.input, m)
		if err != nil {
			return err
		}
		tuples[i] = t
	}
	seed := schema.SetOfNames(rp.input, fixValidated...)
	eng := rp.sys.SnapshotEngine()
	var dst core.ChaseResult
	chase := func(t *schema.Tuple) {
		c := eng.AcquireChaser()
		c.ChaseInto(&dst, t, seed)
		c.Release()
	}
	for _, t := range tuples[:min(64, n)] {
		chase(t)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for _, t := range tuples {
		chase(t)
	}
	el := time.Since(start)
	runtime.ReadMemStats(&m1)
	var evaluated, skipped, fired int
	for _, t := range tuples {
		chase(t)
		evaluated += dst.Stats.RulesEvaluated
		skipped += dst.Stats.RulesSkipped
		seen := map[string]bool{}
		for _, c := range dst.Changes {
			seen[c.RuleID] = true
		}
		fired += len(seen)
	}
	note := fmt.Sprintf("n=%d tuples", n)
	rep.add("core.chase_ns_per_tuple", float64(el.Nanoseconds())/float64(n), "ns", note)
	rep.add("core.allocs_per_fix", float64(m1.Mallocs-m0.Mallocs)/float64(n), "count", note)
	rep.add("core.rules_evaluated_per_tuple", float64(evaluated)/float64(n), "count", note)
	rep.add("core.rules_skipped_per_tuple", float64(skipped)/float64(n), "count", note)
	if evaluated > 0 {
		rep.add("core.rule_fire_ratio", float64(fired)/float64(evaluated), "ratio", "rules fired / rules evaluated")
	}
	return nil
}

// layers runs the traced run's in-process part and adds every
// per-layer metric to rep. Failed checks come back in the tally.
func layers(ctx context.Context, e *env, d *generator, t tally, inst, work string, rep *report) (tally, error) {
	cfg, in := d.cfg, d.in
	tr := &tracer{t0: d.t0}
	for _, s := range t.spans {
		tr.record(s.Name, s.Req, -1, d.t0.Add(time.Duration(s.Start)), d.t0.Add(time.Duration(s.End)))
	}
	loadStart := time.Now()
	sys, err := cerfix.Load(inst)
	if err != nil {
		return tally{}, err
	}
	loadTime := time.Since(loadStart)
	srv := server.New(sys)
	rp := &replayer{cfg: cfg, in: in, sys: sys, tr: tr, input: sys.InputSchema(),
		cfs: &countingFS{FS: faultfs.OS}, jobs: filepath.Join(work, "replay-jobs"),
		serve: map[string][]time.Duration{}}
	rp.mgr, err = jobs.Open(jobs.Config{Dir: rp.jobs, Schema: rp.input, Snapshot: srv.SnapshotEngine,
		MasterMemory: sys.MemStats, FS: rp.cfs})
	if err != nil {
		return tally{}, err
	}
	defer rp.mgr.Close(ctx)
	srv.AttachJobs(rp.mgr)
	rp.h = srv.Handler()

	rep.add("cerfix.load_s", loadTime.Seconds(), "s", "cerfix.Load of the instance")
	mem := sys.MemStats()
	rep.add("master.bytes_per_row", float64(mem.TotalBytes())/float64(mem.Table.Rows), "B", fmt.Sprintf("rows=%d", mem.Table.Rows))
	snaps := make([]time.Duration, 2000)
	for i := range snaps {
		t := time.Now()
		runtime.KeepAlive(sys.SnapshotEngine())
		snaps[i] = time.Since(t)
	}
	rep.add("cerfix.snapshot_us", us(sortedLatencies(snaps).median()), "us", "median of 2000 SnapshotEngine calls")
	if err := rp.chaseProbe(rep); err != nil {
		return tally{}, err
	}

	gc0, alloc0 := runtimeCounters()
	replayStart := time.Now()
	primary := []string{"POST /sessions", "POST /sessions/{id}/validate"}
	switch cfg.name {
	case "entry", "churn":
		t := time.Now()
		rp.mon = sys.Monitor()
		rep.add("region.topk_s", time.Since(t).Seconds(), "s", "NewFinder(eng).TopK(nil) via the first Monitor()")
		rows := 0
		for _, r := range rp.mon.Regions() {
			rows += len(r.Tableau.Rows)
		}
		rep.add("region.tableau_rows", float64(rows), "count", fmt.Sprintf("%d regions", len(rp.mon.Regions())))
	case "bulk_fix":
		primary = []string{"POST /fix"}
	case "jobs":
		primary = []string{"POST /jobs"}
	}
	switch cfg.name {
	case "entry":
		for i := 0; i < cfg.sample; i++ {
			rp.session(in.sessEnc[i], in.truth[i])
		}
		rp.fixes(8, 256)
	case "bulk_fix":
		rp.fixes(cfg.sample, cfg.batch)
	case "jobs":
		for k := 0; k < cfg.sample; k++ {
			rp.job(k)
		}
		rp.fixes(8, 256)
	case "churn":
		per := cfg.sample / 3
		for k := 0; k < 3 && k < len(in.held); k++ {
			for i := k * per; i < (k+1)*per; i++ {
				rp.session(in.sessEnc[i], in.truth[i])
			}
			rp.fixes(cfg.sample/3, cfg.batch)
			rp.insert(in.held[k])
		}
	}
	replay := time.Since(replayStart)
	gc1, alloc1 := runtimeCounters()
	rep.add("runtime.gc_cycles_per_s", float64(gc1-gc0)/replay.Seconds(), "1/s", "during the in-process replay")
	rep.add("runtime.alloc_bytes_per_op", float64(alloc1-alloc0)/float64(max(rp.requests, 1)), "B", fmt.Sprintf("per replayed request, n=%d", rp.requests))

	rp.report(rep, d, t, primary)
	if err := writeSpans(e, cfg, tr); err != nil {
		return tally{}, err
	}
	return rp.t, nil
}

// fixes replays n /fix batches of size tuples, the first one twice.
func (rp *replayer) fixes(n, size int) {
	for b := 0; b < n; b++ {
		rp.fixBatch(b*size, size, b == 0)
	}
}

func runtimeCounters() (gcCycles, allocBytes uint64) {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// report turns the replay's spans and counters into per-layer metrics.
func (rp *replayer) report(rep *report, d *generator, t tally, primary []string) {
	self := rp.tr.selfTimes()
	perTuple := func(name string, tuples int) float64 {
		st := self[name]
		if st == nil || tuples == 0 {
			return 0
		}
		return float64(st.total.Nanoseconds()) / float64(tuples)
	}
	medianOf := func(routes ...string) time.Duration {
		var all []time.Duration
		for _, r := range routes {
			all = append(all, rp.serve[r]...)
		}
		return sortedLatencies(all).median()
	}
	clientMedian := func(suffix string, routes ...string) (time.Duration, int) {
		var all []sample
		for _, r := range routes {
			all = append(all, t.ops[r+suffix]...)
		}
		l := durs(d.inWindow(all, true))
		return l.median(), len(l)
	}

	// server and http: the workload's primary route.
	handle := medianOf(primary...)
	rep.add("server.handle_us", us(handle), "us", fmt.Sprintf("in-process ServeHTTP p50 of %v", primary))
	client, _ := clientMedian("", primary...)
	rep.add("http.loopback_us", us(client-handle), "us", "client p50 minus in-process ServeHTTP p50, same routes")
	var served, attributed time.Duration
	decodeNS := 0.0
	for _, s := range rp.tr.spans {
		if s.Parent < 0 {
			continue
		}
		if route, ok := strings.CutPrefix(rp.tr.spans[s.Parent].Name, "server.ServeHTTP "); !ok || !slices.Contains(primary, route) {
			continue
		}
		attributed += time.Duration(s.End - s.Start)
		if s.Name == "json.Decode" && rp.tr.spans[s.Parent].Name != "server.ServeHTTP POST /sessions/{id}/validate" {
			decodeNS += float64(s.End - s.Start)
		}
	}
	for _, r := range primary {
		for _, dd := range rp.serve[r] {
			served += dd
		}
	}
	// Tuples the primary route's bodies carried: one per session open
	// (a validate carries assertions, not a tuple).
	decodeTuples := rp.fixTuples
	switch {
	case rp.jobTuples > 0:
		decodeTuples = rp.jobTuples
	case rp.sessions > 0:
		decodeTuples = rp.sessions
	}
	if decodeTuples > 0 {
		rep.add("server.decode_ns_per_tuple", decodeNS/float64(decodeTuples), "ns", "encoding/json decode of the handler's request shape")
	}
	if served > 0 {
		rep.add("server.unattributed_pct", 100*float64(served-attributed)/float64(served), "%", "primary-route ServeHTTP time not covered by replayed layer spans")
	}
	for _, r := range sortedKeys(rp.serve) {
		c, n := clientMedian("", r)
		if n == 0 {
			continue
		}
		in := medianOf(r)
		rep.add("http.loopback_us["+r+"]", us(c-in), "us", fmt.Sprintf("client p50 %.1f us, in-process p50 %.1f us", us(c), us(in)))
	}
	if l := rp.serve["POST /fix"]; len(l) > 0 {
		rep.add("server.fix_handle_us", us(medianOf("POST /fix")), "us", fmt.Sprintf("n=%d", len(l)))
	}
	if rp.sessions > 0 {
		rep.add("server.session_handle_us", us(medianOf("POST /sessions", "POST /sessions/{id}/validate")), "us", "open and validate")
		probe := durs(d.inWindow(t.ops["GET /sessions/{id}"], true))
		if p, ok := probe.p99(); ok {
			rep.add("server.lock_probe_p99_ms", ms(p), "ms", fmt.Sprintf("GET /sessions/{id} over loopback, n=%d", len(probe)))
		} else {
			rep.addNA("server.lock_probe_p99_ms", "ms", fmt.Sprintf("n=%d, fewer than 10 samples beyond p99", len(probe)))
		}
	}
	if l := rp.serve["POST /jobs"]; len(l) > 0 {
		rep.add("server.job_submit_ms", ms(medianOf("POST /jobs")), "ms", fmt.Sprintf("n=%d", len(l)))
	}

	// tracing overhead: traced against untraced requests of the same
	// end-to-end window.
	traced, nt := clientMedian(" traced", primary...)
	untraced, nu := clientMedian(" untraced", primary...)
	if nt > 0 && nu > 0 {
		rep.add("trace.overhead_pct", 100*(float64(traced)-float64(untraced))/float64(untraced), "%",
			fmt.Sprintf("client p50 traced %.1f us (n=%d) vs untraced %.1f us (n=%d)", us(traced), nt, us(untraced), nu))
	}

	if len(rp.addMaster) > 0 {
		rep.add("cerfix.add_master_row_us", us(sortedLatencies(rp.addMaster).median()), "us", fmt.Sprintf("n=%d", len(rp.addMaster)))
		rep.add("master.cow_copied_bytes", float64(rp.sys.MemStats().Table.CowCopied), "B", "after the churn replay")
	}

	if rp.coversN > 0 {
		rep.add("region.covers_ns", float64(rp.covers.Nanoseconds())/float64(rp.coversN), "ns", fmt.Sprintf("n=%d", rp.coversN))
	}
	if rp.sessions > 0 {
		for _, m := range [][2]string{
			{"monitor.NewSession", "monitor.new_session_us"},
			{"monitor.Validate", "monitor.validate_us"},
			{"monitor.Suggestion", "monitor.suggestion_us"},
		} {
			if st := self[m[0]]; st != nil {
				rep.add(m[1], us(st.total)/float64(st.n), "us", fmt.Sprintf("n=%d", st.n))
			}
		}
		rep.add("monitor.rounds_per_session", float64(rp.rounds)/float64(rp.sessions), "count", fmt.Sprintf("n=%d sessions", rp.sessions))
		rep.add("audit.records_end", float64(rp.sys.Audit().Len()), "count", "audit log length after the replay, never trimmed")
	}

	if rp.fixTuples > 0 {
		rep.add("pipeline.run_ns_per_tuple", perTuple("pipeline.Run", rp.fixTuples), "ns", fmt.Sprintf("n=%d tuples", rp.fixTuples))
		rep.add("pipeline.source_ns_per_tuple", perTuple("pipeline.Source", rp.fixTuples), "ns", "slice source, span cost included")
		rep.add("pipeline.sink_ns_per_tuple", perTuple("pipeline.Sink", rp.fixTuples), "ns", "ResultEncoder.Append included, span cost included")
	}
	if rp.scanTime > 0 {
		rep.add("pipeline.jsonl_scan_mb_per_s", float64(rp.scanBytes)/1e6/rp.scanTime.Seconds(), "MB/s", "JSONLSource over job input.jsonl")
	}
	if rp.jobTuples > 0 {
		jobsN := float64(len(rp.jobRun))
		if st := self["jobs.Manager.SubmitInline"]; st != nil {
			rep.add("jobs.submit_ms", ms(st.total)/float64(st.n), "ms", fmt.Sprintf("Manager.SubmitInline, n=%d", st.n))
		}
		rep.add("jobs.queue_wait_ms", ms(sortedLatencies(rp.jobWait).median()), "ms", "journal submitted to started")
		rep.add("jobs.run_ms", ms(sortedLatencies(rp.jobRun).median()), "ms", "journal started to finished")
		rep.add("jobs.results_fetch_ms", ms(sortedLatencies(rp.jobFetch).median()), "ms", "in-process GET results")
		rep.add("jobs.artifact_bytes_per_tuple", float64(rp.artifactBytes)/float64(rp.jobTuples), "B", "")
		rep.add("faultfs.syncs_per_job", float64(rp.jobSyncs)/jobsN, "count", "file and directory fsyncs, submit to done")
		rep.add("faultfs.sync_ms_per_job", float64(rp.jobSyncNS)/1e6/jobsN, "ms", "")
		rep.add("faultfs.write_amplification", float64(rp.jobWritten)/float64(rp.jobInBytes), "ratio", "bytes written per submitted body byte")
	}
	if wl := durs(d.inWindow(t.ops["write_late"], true)); len(wl) > 0 {
		rep.add("gen.write_late_p50_ms", ms(wl.median()), "ms", fmt.Sprintf("n=%d", len(wl)))
	}

	// The self-time table: every span name, its count, total and self
	// time; the ServeHTTP rows' self time is the unattributed remainder.
	names := sortedKeys(self)
	sort.SliceStable(names, func(i, j int) bool { return self[names[i]].total > self[names[j]].total })
	for _, name := range names {
		st := self[name]
		label := "self"
		if strings.HasPrefix(name, "server.ServeHTTP ") {
			label = "unattributed"
		}
		rep.add("self_ms["+name+"]", ms(st.self), "ms", fmt.Sprintf("%s; n=%d total %.3f ms", label, st.n, ms(st.total)))
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// writeSpans writes the trace as JSONL under .bench_build/trace.
func writeSpans(e *env, cfg config, tr *tracer) error {
	dir := filepath.Join(e.build, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.name, cfg.seed)))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
