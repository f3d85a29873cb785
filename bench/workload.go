package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cerfix"
	"cerfix/internal/dataset"
	"cerfix/internal/textutil"
)

// config is one workload's shape. workloadConfig gives the sizes the
// benchmark runs; the test shrinks them.
type config struct {
	name       string
	seed       uint64
	traced     bool
	warmup     time.Duration
	window     time.Duration
	setups     int           // daemon starts per run; setup_s is their median
	entities   int           // master entities in the loaded instance
	pool       int           // generated input tuples the clients cycle through
	batch      int           // tuples per POST /fix
	jobTuples  int           // tuples per job
	writeEvery time.Duration // churn: master insert period
	sample     int           // traced run: sessions, /fix batches or jobs replayed in process
}

// workloads names the benchmark's workloads in BENCHMARK.json order.
var workloads = []string{"entry", "bulk_fix", "jobs", "churn"}

// workloadConfig returns the workload's full-size configuration. Entry
// and churn keep the master small because the region precompute every
// session depends on is quadratic in master size (README.md).
func workloadConfig(name string) (config, error) {
	c := config{
		name: name, warmup: 3 * time.Second, window: 15 * time.Second, setups: 3,
		pool: 20011, batch: 256, sample: 40,
	}
	switch name {
	case "entry":
		c.entities, c.sample = 500, 300
	case "bulk_fix":
		c.entities = 20000
	case "jobs":
		c.entities, c.jobTuples, c.sample = 20000, 50000, 2
	case "churn":
		c.entities, c.batch, c.writeEvery, c.sample = 100, 64, time.Second, 150
	default:
		return c, fmt.Errorf("unknown workload %q (want one of %v)", name, workloads)
	}
	return c, nil
}

// heldCount is how many churn inserts fit in warm-up plus window.
func (c config) heldCount() int {
	if c.writeEvery <= 0 {
		return 0
	}
	return int((c.warmup+c.window)/c.writeEvery) + 1
}

// fixValidated are the attributes every /fix and job asserts; the
// generator sets them to their true values, so a validated cell that
// differs from the truth is a wrong "certain" fix.
var fixValidated = []string{"zip", "phn", "type", "item"}

// inputs is everything generated from the seed: master rows, and a pool
// of (dirty, truth) input tuples pre-encoded for the wire.
type inputs struct {
	attrs   []string       // CUST attributes in schema order
	attrIdx map[string]int // attribute -> position
	master  [][]string     // PERSON rows loaded at start
	truth   [][]string     // ground truth per pool tuple, schema order
	fixEnc  [][]byte       // pool tuple as a /fix JSON object: dirty, fixValidated set true
	sessEnc [][]byte       // pool tuple as a POST /sessions body (dirty)
	held    []heldEntity   // churn: entities inserted during the run
}

type heldEntity struct {
	master  map[string]string // PERSON row for POST /master
	truth   []string
	sessEnc []byte
}

func generate(cfg config) (*inputs, error) {
	g := dataset.NewCustomerGen(cfg.seed)
	held := cfg.heldCount()
	ents := g.GenerateEntities(cfg.entities + held)
	pick := textutil.NewRNG(cfg.seed ^ 0x5eed)
	noise := dataset.NewNoise(cfg.seed+1, 0.3)
	cust := dataset.CustSchema()
	in := &inputs{attrs: cust.AttrNames(), attrIdx: map[string]int{}}
	for i, a := range in.attrs {
		in.attrIdx[a] = i
	}
	for _, e := range ents[:cfg.entities] {
		in.master = append(in.master, e.Master.Strings())
	}
	truths := make([]*cerfix.Tuple, cfg.pool)
	for i := range truths {
		truths[i] = g.CleanInput(ents[pick.Intn(cfg.entities)])
	}
	for _, t := range truths {
		dirty, _ := noise.Dirty(t, truths)
		fix := dirty.Map()
		for _, a := range fixValidated {
			fix[a] = string(t.Get(a))
		}
		fixEnc, err := json.Marshal(fix)
		if err != nil {
			return nil, err
		}
		sessEnc, err := json.Marshal(map[string]any{"tuple": dirty.Map()})
		if err != nil {
			return nil, err
		}
		in.truth = append(in.truth, t.Vals.Strings())
		in.fixEnc = append(in.fixEnc, fixEnc)
		in.sessEnc = append(in.sessEnc, sessEnc)
	}
	person := dataset.PersonSchema().AttrNames()
	for _, e := range ents[cfg.entities:] {
		t := g.CleanInput(e)
		dirty, _ := noise.Dirty(t, truths)
		sessEnc, err := json.Marshal(map[string]any{"tuple": dirty.Map()})
		if err != nil {
			return nil, err
		}
		row := map[string]string{}
		for i, a := range person {
			row[a] = string(e.Master[i])
		}
		in.held = append(in.held, heldEntity{master: row, truth: t.Vals.Strings(), sessEnc: sessEnc})
	}
	return in, nil
}

// writeInstance saves the demo schemas, rules φ1–φ9 and the master rows
// as a cerfixd -load instance directory.
func writeInstance(dir string, in *inputs) error {
	sys, err := cerfix.New(dataset.CustSchema(), dataset.PersonSchema(), dataset.DemoRulesDSL)
	if err != nil {
		return err
	}
	for _, row := range in.master {
		if err := sys.AddMasterRow(row...); err != nil {
			return err
		}
	}
	return sys.Save(dir)
}

// fixBody appends a /fix or job body of n pool tuples starting at start
// (wrapping) to dst. The tuples are pre-encoded, so building a body is a
// copy, not a marshal.
func (in *inputs) fixBody(dst []byte, start, n int) []byte {
	dst = append(dst, `{"validated":["zip","phn","type","item"],"tuples":[`...)
	for i := 0; i < n; i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, in.fixEnc[(start+i)%len(in.fixEnc)]...)
	}
	return append(dst, "]}"...)
}

// checkResult verifies one fixed tuple: every attribute it reports
// validated must hold the ground-truth value.
func (in *inputs) checkResult(tuple map[string]string, validated []string, truth []string) error {
	for _, a := range validated {
		i, ok := in.attrIdx[a]
		if !ok {
			return fmt.Errorf("unknown validated attribute %q", a)
		}
		if tuple[a] != truth[i] {
			return fmt.Errorf("validated %s = %q, truth %q", a, tuple[a], truth[i])
		}
	}
	return nil
}

// checkTuple verifies a finished session's tuple equals the truth.
func (in *inputs) checkTuple(tuple map[string]string, truth []string) error {
	for i, a := range in.attrs {
		if tuple[a] != truth[i] {
			return fmt.Errorf("%s = %q, truth %q", a, tuple[a], truth[i])
		}
	}
	return nil
}

// fixedTuple is one element of a /fix results array or one line of a
// job artifact, restricted to what the checks read.
type fixedTuple struct {
	Tuple     map[string]string `json:"tuple"`
	Validated []string          `json:"validated"`
}

// sessionView is the part of a session reply the oracle reads.
type sessionView struct {
	ID         int64             `json:"id"`
	Tuple      map[string]string `json:"tuple"`
	Suggestion []string          `json:"suggestion"`
	Done       bool              `json:"done"`
	Certain    bool              `json:"certain"`
}

// sample is one timed operation: when it started relative to the run's
// start, how long it took, and how many tuples (or asserted attributes)
// it carried.
type sample struct {
	at, dur time.Duration
	n       int
}

// tally is one client's record of a run. Each client owns its tally, so
// no locking is needed until the generator merges them.
type tally struct {
	ops       map[string][]sample // per route, plus session, job, write_visible, write_late
	attempted int64
	failed    int64
	errs      []string
	spans     []span // traced runs: one per traced request
}

func (t *tally) add(kind string, s sample) {
	if t.ops == nil {
		t.ops = map[string][]sample{}
	}
	t.ops[kind] = append(t.ops[kind], s)
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

// generator runs one workload's closed-loop clients against a daemon.
type generator struct {
	cfg    config
	in     *inputs
	hc     *http.Client
	base   string
	t0     time.Time // start of warm-up
	end    time.Time // end of the measured window
	cursor atomic.Int64
}

// client is one closed-loop caller with its own connection use and
// response buffer.
type client struct {
	d    *generator
	t    tally
	resp bytes.Buffer
	body []byte
	seq  map[string]int // requests sent per route; traced runs record spans on even ones
}

func drain(resp *http.Response) error {
	_, err := io.Copy(io.Discard, resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return err
}

// call sends one request, records its latency under route and returns
// the response body (valid until the next call). A transport error or
// an unexpected status counts as a failure.
func (c *client) call(ctx context.Context, route, method, path string, body []byte, want int) ([]byte, bool) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.d.base+path, rd)
	if err != nil {
		c.t.attempted++
		c.t.fail("%s: %v", route, err)
		return nil, false
	}
	at := time.Since(c.d.t0)
	c.t.attempted++
	resp, err := c.d.hc.Do(req)
	if err != nil {
		c.t.fail("%s: %v", route, err)
		return nil, false
	}
	c.resp.Reset()
	_, err = c.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	dur := time.Since(c.d.t0) - at
	if err != nil || resp.StatusCode != want {
		c.t.fail("%s: status %d (want %d), err %v: %.300s", route, resp.StatusCode, want, err, c.resp.Bytes())
		return nil, false
	}
	c.t.add(route, sample{at: at, dur: dur})
	if c.d.cfg.traced {
		// Alternate traced and untraced requests of each route, so the
		// traced run itself measures what recording a span costs
		// (trace.overhead_pct).
		if c.seq[route]%2 == 0 {
			c.t.spans = append(c.t.spans, span{
				Parent: -1, Name: "client " + route, Req: resp.Header.Get("X-Request-Id"),
				Start: int64(at), End: int64(at + dur),
			})
			c.t.add(route+" traced", sample{at: at, dur: dur})
		} else {
			c.t.add(route+" untraced", sample{at: at, dur: dur})
		}
	}
	c.seq[route]++
	return c.resp.Bytes(), true
}

// session opens a session on a pool or held-back tuple and follows the
// suggestions like an oracle that knows the truth, until the session is
// done. It returns the attributes the oracle asserted and whether the
// session ended done, certain and equal to the truth.
func (c *client) session(ctx context.Context, body []byte, truth []string) (asserted int, ok bool) {
	raw, ok := c.call(ctx, "POST /sessions", "POST", "/api/v1/sessions", body, http.StatusCreated)
	if !ok {
		return 0, false
	}
	var s sessionView
	if err := json.Unmarshal(raw, &s); err != nil {
		c.t.fail("session open: %v", err)
		return 0, false
	}
	path := "/api/v1/sessions/" + strconv.FormatInt(s.ID, 10)
	for round := 0; !s.Done; round++ {
		if round >= len(c.d.in.attrs) || len(s.Suggestion) == 0 {
			c.t.fail("session %d: not done after %d rounds, suggestion %v", s.ID, round, s.Suggestion)
			return asserted, false
		}
		as := make(map[string]string, len(s.Suggestion))
		for _, a := range s.Suggestion {
			as[a] = truth[c.d.in.attrIdx[a]]
		}
		asserted += len(as)
		b, err := json.Marshal(map[string]any{"assertions": as})
		if err != nil {
			c.t.fail("session %d: %v", s.ID, err)
			return asserted, false
		}
		raw, ok := c.call(ctx, "POST /sessions/{id}/validate", "POST", path+"/validate", b, http.StatusOK)
		if !ok {
			return asserted, false
		}
		var v struct {
			Session sessionView `json:"session"`
		}
		if err := json.Unmarshal(raw, &v); err != nil {
			c.t.fail("session %d validate: %v", s.ID, err)
			return asserted, false
		}
		s = v.Session
	}
	if !s.Certain {
		c.t.fail("session %d: done but not certain", s.ID)
		return asserted, false
	}
	if err := c.d.in.checkTuple(s.Tuple, truth); err != nil {
		c.t.fail("session %d: %v", s.ID, err)
		return asserted, false
	}
	// GET /sessions/{id} only takes Server.mu, so its tail is the lock
	// wait other requests impose (server.lock_probe_p99_ms).
	_, ok = c.call(ctx, "GET /sessions/{id}", "GET", path, nil, http.StatusOK)
	return asserted, ok
}

// sessions is the entry client: one oracle session after another.
func (c *client) sessions(ctx context.Context) {
	for time.Now().Before(c.d.end) && ctx.Err() == nil {
		i := int(c.d.cursor.Add(1)-1) % len(c.d.in.sessEnc)
		at := time.Since(c.d.t0)
		asserted, ok := c.session(ctx, c.d.in.sessEnc[i], c.d.in.truth[i])
		if ok {
			c.t.add("session", sample{at: at, dur: time.Since(c.d.t0) - at, n: asserted})
		}
	}
}

// fix sends one /fix batch of n pool tuples and checks every result.
func (c *client) fix(ctx context.Context, n int) {
	start := int(c.d.cursor.Add(int64(n))-int64(n)) % len(c.d.in.fixEnc)
	c.body = c.d.in.fixBody(c.body[:0], start, n)
	raw, ok := c.call(ctx, "POST /fix", "POST", "/api/v1/fix", c.body, http.StatusOK)
	if !ok {
		return
	}
	var out struct {
		Results []fixedTuple `json:"results"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		c.t.fail("fix: %v", err)
		return
	}
	if err := c.d.in.checkFixed(out.Results, start); err != nil {
		c.t.fail("fix: %v", err)
		return
	}
	k := c.t.ops["POST /fix"]
	k[len(k)-1].n = n
}

// checkFixed verifies results for consecutive pool tuples from start.
func (in *inputs) checkFixed(res []fixedTuple, start int) error {
	for j, r := range res {
		if err := in.checkResult(r.Tuple, r.Validated, in.truth[(start+j)%len(in.truth)]); err != nil {
			return fmt.Errorf("tuple %d: %w", start+j, err)
		}
	}
	return nil
}

func (c *client) fixes(ctx context.Context) {
	for time.Now().Before(c.d.end) && ctx.Err() == nil {
		c.fix(ctx, c.d.cfg.batch)
	}
}

// job submits one inline job over a fresh slice of the pool, polls it
// every 10 ms, reads its artifact to EOF and checks every line, then
// deletes it so the jobs directory stays small.
func (c *client) job(ctx context.Context) {
	n := c.d.cfg.jobTuples
	start := int(c.d.cursor.Add(int64(n))-int64(n)) % len(c.d.in.fixEnc)
	c.body = c.d.in.fixBody(c.body[:0], start, n)
	at := time.Since(c.d.t0)
	raw, ok := c.call(ctx, "POST /jobs", "POST", "/api/v1/jobs", c.body, http.StatusAccepted)
	if !ok {
		return
	}
	var j struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.Unmarshal(raw, &j); err != nil {
		c.t.fail("job submit: %v", err)
		return
	}
	path := "/api/v1/jobs/" + j.ID
	for j.State != "done" {
		if j.State == "failed" || j.State == "cancelled" {
			c.t.fail("job %s: %s", j.ID, j.State)
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(10 * time.Millisecond):
		}
		raw, ok := c.call(ctx, "GET /jobs/{id}", "GET", path, nil, http.StatusOK)
		if !ok {
			return
		}
		if err := json.Unmarshal(raw, &j); err != nil {
			c.t.fail("job poll: %v", err)
			return
		}
	}
	raw, ok = c.call(ctx, "GET /jobs/{id}/results", "GET", path+"/results", nil, http.StatusOK)
	if !ok {
		return
	}
	c.t.add("job", sample{at: at, dur: time.Since(c.d.t0) - at, n: n})
	if err := c.d.in.checkArtifact(raw, start, n); err != nil {
		c.t.fail("job %s: %v", j.ID, err)
	}
	c.call(ctx, "DELETE /jobs/{id}", "DELETE", path, nil, http.StatusOK)
}

// checkArtifact verifies a results.jsonl: one line per input tuple, each
// line's validated cells true.
func (in *inputs) checkArtifact(raw []byte, start, n int) error {
	lines := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
	if len(lines) != n {
		return fmt.Errorf("artifact has %d lines for %d input tuples", len(lines), n)
	}
	for k, ln := range lines {
		var r fixedTuple
		if err := json.Unmarshal(ln, &r); err != nil {
			return fmt.Errorf("line %d: %w", k+1, err)
		}
		if err := in.checkResult(r.Tuple, r.Validated, in.truth[(start+k)%len(in.truth)]); err != nil {
			return fmt.Errorf("line %d: %w", k+1, err)
		}
	}
	return nil
}

func (c *client) jobs(ctx context.Context) {
	for time.Now().Before(c.d.end) && ctx.Err() == nil {
		c.job(ctx)
	}
}

// churnWriter sends /fix batches and, every writeEvery on schedule,
// inserts one held-back entity and drives a session on it until it is
// certain: write_visible is insert-sent to certain, write_late how far
// behind schedule the insert went out.
func (c *client) churnWriter(ctx context.Context) {
	k := 0
	for time.Now().Before(c.d.end) && ctx.Err() == nil {
		due := c.d.t0.Add(time.Duration(k+1) * c.d.cfg.writeEvery)
		if k >= len(c.d.in.held) || time.Now().Before(due) {
			c.fix(ctx, c.d.cfg.batch)
			continue
		}
		h := c.d.in.held[k]
		k++
		at := time.Since(c.d.t0)
		c.t.add("write_late", sample{at: at, dur: at - due.Sub(c.d.t0)})
		b, err := json.Marshal(map[string]any{"values": h.master})
		if err != nil {
			c.t.fail("insert: %v", err)
			continue
		}
		if _, ok := c.call(ctx, "POST /master", "POST", "/api/v1/master", b, http.StatusCreated); !ok {
			continue
		}
		if _, ok := c.session(ctx, h.sessEnc, h.truth); ok {
			c.t.add("write_visible", sample{at: at, dur: time.Since(c.d.t0) - at})
		}
	}
}

// run drives the workload's clients from warm-up start to window end
// and merges their tallies. Entry and bulk_fix use two clients of the
// same kind; churn pairs a session client with the writer; jobs uses
// one client.
func (d *generator) run(ctx context.Context) tally {
	var loops []func(*client, context.Context)
	switch d.cfg.name {
	case "entry":
		loops = append(loops, (*client).sessions, (*client).sessions)
	case "bulk_fix":
		loops = append(loops, (*client).fixes, (*client).fixes)
	case "jobs":
		loops = append(loops, (*client).jobs)
	case "churn":
		loops = append(loops, (*client).sessions, (*client).churnWriter)
	}
	d.t0 = time.Now()
	d.end = d.t0.Add(d.cfg.warmup + d.cfg.window)
	clients := make([]*client, len(loops))
	var wg sync.WaitGroup
	for i, loop := range loops {
		clients[i] = &client{d: d, seq: map[string]int{}}
		wg.Add(1)
		go func(c *client, loop func(*client, context.Context)) {
			defer wg.Done()
			loop(c, ctx)
		}(clients[i], loop)
	}
	wg.Wait()
	var all tally
	for _, c := range clients {
		all.attempted += c.t.attempted
		all.failed += c.t.failed
		all.errs = append(all.errs, c.t.errs...)
		all.spans = append(all.spans, c.t.spans...)
		for k, v := range c.t.ops {
			for _, s := range v {
				all.add(k, s)
			}
		}
	}
	return all
}

// inWindow keeps the samples that started after warm-up and, unless
// finishing late is allowed, ended inside the window.
func (d *generator) inWindow(ss []sample, allowLate bool) []sample {
	var out []sample
	lo, hi := d.cfg.warmup, d.cfg.warmup+d.cfg.window
	for _, s := range ss {
		if s.at >= lo && s.at < hi && (allowLate || s.at+s.dur <= hi) {
			out = append(out, s)
		}
	}
	return out
}

func durs(ss []sample) latencies {
	ds := make([]time.Duration, len(ss))
	for i, s := range ss {
		ds[i] = s.dur
	}
	return sortedLatencies(ds)
}
