package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"cerfix"
	"cerfix/internal/core"
	"cerfix/internal/dataset"
	"cerfix/internal/jobs"
	"cerfix/internal/pipeline"
	"cerfix/internal/schema"
)

// This file pins the one-pass POST /api/v1/jobs: its answers equal
// those of the whole-body decode it replaced (kept below as the
// reference), sheds are decided before a body byte is read, and no
// refused submit leaves a job directory or a backlog reservation
// behind.

// submitMaxBody is the -max-body cap of the submit harness: a few demo
// tuples fit, a few dozen do not.
const submitMaxBody = 2048

// submitHarness is a demo server with a jobs manager over a fresh
// directory, a -max-body cap (submitMaxBody unless given) and no sheds
// configured.
type submitHarness struct {
	h       http.Handler
	mgr     *jobs.Manager
	dir     string
	maxBody int64
}

func newSubmitHarness(tb testing.TB) *submitHarness {
	return newCappedSubmitHarness(tb, submitMaxBody)
}

func newCappedSubmitHarness(tb testing.TB, maxBody int64) *submitHarness {
	tb.Helper()
	sys, err := cerfix.New(dataset.CustSchema(), dataset.PersonSchema(), dataset.DemoRulesDSL)
	if err != nil {
		tb.Fatal(err)
	}
	for _, row := range dataset.DemoMasterRows() {
		if err := sys.AddMasterRow(row.Strings()...); err != nil {
			tb.Fatal(err)
		}
	}
	srv := New(sys)
	srv.SetLimits(Limits{MaxBody: maxBody})
	dir := tb.TempDir()
	mgr, err := jobs.Open(jobs.Config{Dir: dir, Schema: sys.InputSchema(), Snapshot: srv.SnapshotEngine})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { mgr.Close(context.Background()) })
	srv.AttachJobs(mgr)
	return &submitHarness{h: srv.Handler(), mgr: mgr, dir: dir, maxBody: maxBody}
}

// post submits body through ServeHTTP.
func (h *submitHarness) post(body []byte) *httptest.ResponseRecorder {
	return h.send(bytes.NewReader(body))
}

// send submits the body r yields through ServeHTTP.
func (h *submitHarness) send(r io.Reader) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.h.ServeHTTP(rec, httptest.NewRequest("POST", "/api/v1/jobs", r))
	return rec
}

// entries lists the jobs directory.
func (h *submitHarness) entries(tb testing.TB) []string {
	tb.Helper()
	es, err := os.ReadDir(h.dir)
	if err != nil {
		tb.Fatal(err)
	}
	var names []string
	for _, e := range es {
		names = append(names, e.Name())
	}
	return names
}

// inputTuples decodes an accepted job's input.jsonl through the run's
// own source.
func (h *submitHarness) inputTuples(tb testing.TB, id string) [][]string {
	tb.Helper()
	f, err := os.Open(filepath.Join(h.dir, id, "input.jsonl"))
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	src := pipeline.NewJSONLSource(h.mgr.Schema(), f)
	var out [][]string
	for {
		tu, err := src.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			tb.Fatalf("input.jsonl: %v", err)
		}
		out = append(out, tu.Vals.Strings())
	}
}

// purge waits for an accepted job to finish and removes it, so the
// next submit starts from an empty jobs directory.
func (h *submitHarness) purge(tb testing.TB, id string) {
	tb.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, err := h.mgr.Get(id)
		if err != nil {
			tb.Fatal(err)
		}
		if j.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			tb.Fatalf("job %s stuck in %s", id, j.State)
		}
		time.Sleep(time.Millisecond)
	}
	if err := h.mgr.Remove(id); err != nil {
		tb.Fatal(err)
	}
}

var (
	fig3JSON = func() string {
		b, _ := json.Marshal(dataset.DemoInputFig3().Map())
		return string(b)
	}()
	okValidated = `"validated":["zip","phn","type","item"]`
)

// submitEdges is the edge table of POST /api/v1/jobs. Status and code
// are what the whole-body decode of the old request struct answered
// (refSubmit), except the two repeated-tuples rows, which merged the
// arrays there; msg is the exact text where a single cause is at
// fault. The bodies also seed FuzzJobSubmitBody.
var submitEdges = []struct {
	name   string
	body   string
	status int
	code   string
	msg    string
}{
	{"plain", `{` + okValidated + `,"tuples":[` + fig3JSON + `]}`, 202, "", ""},
	{"key folded", `{"VALIDATED":["zip","phn","type","item"],"Tuples":[` + fig3JSON + `]}`, 202, "", ""},
	{"key folded long s", `{` + okValidated + `,"tupleſ":[` + fig3JSON + `]}`, 202, "", ""},
	{"escaped key", `{` + okValidated + `,"tu\u0070les":[` + fig3JSON + `]}`, 202, "", ""},
	{"null element", `{` + okValidated + `,"tuples":[null]}`, 202, "", ""},
	{"trailing garbage", `{` + okValidated + `,"tuples":[` + fig3JSON + `]} }}not json`, 202, "", ""},
	{"repeated validated last wins", `{"validated":["bogus"],"tuples":[` + fig3JSON + `],` + okValidated + `}`, 202, "", ""},
	{"repeated validated last loses", `{` + okValidated + `,"tuples":[` + fig3JSON + `],"validated":["bogus"]}`,
		422, codeInvalidInput, `jobs: unknown attribute "bogus"`},
	{"null body", `null`, 422, codeInvalidInput, "tuples or input_path required"},
	{"empty object", `{}`, 422, codeInvalidInput, "tuples or input_path required"},
	{"null tuples", `{` + okValidated + `,"tuples":null}`, 422, codeInvalidInput, "tuples or input_path required"},
	{"empty tuples", `{` + okValidated + `,"tuples":[]}`, 422, codeInvalidInput, "tuples or input_path required"},
	{"unknown attribute", `{` + okValidated + `,"tuples":[` + fig3JSON + `,{"bogus":"x"}]}`,
		422, codeInvalidInput, `jobs: tuple 1: schema CUST: unknown attribute "bogus"`},
	{"tuples and input_path", `{` + okValidated + `,"tuples":[` + fig3JSON + `],"input_path":"/x.csv"}`,
		422, codeInvalidInput, "give tuples or input_path, not both"},
	{"empty validated", `{"validated":[],"tuples":[` + fig3JSON + `]}`, 422, codeInvalidInput, "jobs: validated attribute list required"},
	{"null validated", `{"tuples":[` + fig3JSON + `]}`, 422, codeInvalidInput, "jobs: validated attribute list required"},
	{"unknown validated", `{"validated":["bogus"],"tuples":[` + fig3JSON + `]}`, 422, codeInvalidInput, `jobs: unknown attribute "bogus"`},
	{"input_path disabled", `{` + okValidated + `,"input_path":"/x.csv","format":"csv"}`,
		422, codeInvalidInput, "jobs: server-side input paths are disabled (no input root configured)"},
	{"unknown key", `{` + okValidated + `,"tuples":[` + fig3JSON + `],"extra":1}`, 400, codeInvalidArgument, ""},
	{"schema error then type error", `{` + okValidated + `,"tuples":[{"bogus":"x"},{"zip":1}]}`, 400, codeInvalidArgument, ""},
	{"schema error then unknown key", `{` + okValidated + `,"tuples":[{"bogus":"x"}],"extra":1}`, 400, codeInvalidArgument, ""},
	{"schema error then syntax error", `{` + okValidated + `,"tuples":[{"bogus":"x"},{"zip":}]}`, 400, codeInvalidArgument, ""},
	{"repeated tuples", `{` + okValidated + `,"tuples":[{"bogus":"x"}],"tuples":[{"zip":"1"}]}`, 400, codeInvalidArgument, ""},
	{"repeated folded tuples", `{` + okValidated + `,"tuples":[` + fig3JSON + `],"TUPLES":[` + fig3JSON + `]}`, 400, codeInvalidArgument, ""},
	{"empty body", ``, 400, codeInvalidArgument, ""},
	{"array body", `[]`, 400, codeInvalidArgument, ""},
	{"string body", `"s"`, 400, codeInvalidArgument, ""},
	{"unterminated object", `{` + okValidated + `,"tuples":[` + fig3JSON, 400, codeInvalidArgument, ""},
	{"object tuples", `{` + okValidated + `,"tuples":{}}`, 400, codeInvalidArgument, ""},
	{"string tuples", `{` + okValidated + `,"tuples":["s"]}`, 400, codeInvalidArgument, ""},
	{"string validated", `{"validated":"zip","tuples":[` + fig3JSON + `]}`, 400, codeInvalidArgument, ""},
	{"huge number in unknown key", `{` + okValidated + `,"tuples":[` + fig3JSON + `],"x":1e999}`, 400, codeInvalidArgument, ""},
	{"over the cap inside tuples", `{` + okValidated + `,"tuples":[` + strings.Repeat(fig3JSON+",", 20) + fig3JSON + `]}`,
		413, codeBodyTooLarge, ""},
	{"type error then over the cap", `{"validated":"zip","tuples":[` + strings.Repeat(fig3JSON+",", 20) + fig3JSON + `]}`,
		413, codeBodyTooLarge, ""},
	{"syntax error then over the cap", `{` + okValidated + `,"tuples":[{"zip":},` + strings.Repeat(fig3JSON+",", 20) + `]}`,
		400, codeInvalidArgument, ""},
}

func TestJobSubmitEdgeTable(t *testing.T) {
	h := newSubmitHarness(t)
	for _, tc := range submitEdges {
		rec := h.post([]byte(tc.body))
		if rec.Code != tc.status {
			t.Fatalf("%s: status %d (%s), want %d", tc.name, rec.Code, rec.Body, tc.status)
		}
		if tc.status == http.StatusAccepted {
			var j jobJSON
			if err := json.Unmarshal(rec.Body.Bytes(), &j); err != nil {
				t.Fatal(err)
			}
			h.purge(t, j.ID)
			continue
		}
		env := decodeEnvelope(t, rec.Body.Bytes())
		if env.Error.Code != tc.code {
			t.Fatalf("%s: code %q, want %q", tc.name, env.Error.Code, tc.code)
		}
		if tc.msg != "" && env.Error.Message != tc.msg {
			t.Fatalf("%s: message %q, want %q", tc.name, env.Error.Message, tc.msg)
		}
		if got := h.entries(t); len(got) != 0 {
			t.Fatalf("%s: refused submit left %v in the jobs directory", tc.name, got)
		}
		if q := h.mgr.Stats().Queued; q != 0 {
			t.Fatalf("%s: refused submit left %d backlog reservations", tc.name, q)
		}
	}
}

// countingReader counts the bytes a handler reads from a request body.
type countingReader struct {
	r io.Reader
	n atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// A full backlog and degraded persistence shed POST /api/v1/jobs before
// the handler reads a single body byte, inline and input_path submits
// alike, and leave no job directory.
func TestJobSubmitShedsBeforeBody(t *testing.T) {
	inline := fixPayload()
	file := []byte(`{"validated":["zip"],"input_path":"/x.csv","format":"csv"}`)
	assertShed := func(t *testing.T, h http.Handler, dir string, status int, code string) {
		t.Helper()
		before := countDirs(t, dir)
		for _, body := range [][]byte{inline, file} {
			cr := &countingReader{r: bytes.NewReader(body)}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/api/v1/jobs", cr))
			if rec.Code != status {
				t.Fatalf("status = %d (%s), want %d", rec.Code, rec.Body, status)
			}
			if env := decodeEnvelope(t, rec.Body.Bytes()); env.Error.Code != code {
				t.Fatalf("code = %q, want %q", env.Error.Code, code)
			}
			if n := cr.n.Load(); n != 0 {
				t.Fatalf("shed read %d body bytes, want 0", n)
			}
			if got := countDirs(t, dir); got != before {
				t.Fatalf("job dirs %d -> %d: shed touched disk", before, got)
			}
		}
	}

	t.Run("backlog_full", func(t *testing.T) {
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
		defer func() {
			close(gate)
			mgr.Close(context.Background())
		}()
		srv.AttachJobs(mgr)
		h := srv.Handler()
		// A occupies the runner (blocked at snapshot), B fills the queue.
		for _, name := range []string{"A", "B"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/api/v1/jobs", bytes.NewReader(inline)))
			if rec.Code != http.StatusAccepted {
				t.Fatalf("submit %s = %d: %s", name, rec.Code, rec.Body)
			}
			for mgr.Stats().Running == 0 {
				time.Sleep(time.Millisecond)
			}
		}
		assertShed(t, h, dir, http.StatusTooManyRequests, codeBacklogFull)
	})

	t.Run("persistence_degraded", func(t *testing.T) {
		srv, failing, dir := degradedServer(t, time.Hour)
		failing.Store(true)
		srv.persistHealth.ReportResult(syscall.ENOSPC)
		// Spend the probe that comes due on degrading, so no submit
		// below runs it.
		if err := srv.jobs.Admit(); !errors.Is(err, jobs.ErrDegraded) {
			t.Fatalf("Admit = %v, want ErrDegraded", err)
		}
		assertShed(t, srv.Handler(), dir, http.StatusServiceUnavailable, codePersistenceDegraded)
	})
}

// --- reference: the whole-body decode -------------------------------

// refJobSubmitRequest and refDecodeBody are the request struct and the
// body decoder POST /api/v1/jobs used before the one-pass submit, kept
// verbatim as the reference for FuzzJobSubmitBody.
type refJobSubmitRequest struct {
	Validated []string            `json:"validated"`
	Tuples    []map[string]string `json:"tuples,omitempty"`
	InputPath string              `json:"input_path,omitempty"`
	Format    string              `json:"format,omitempty"`
}

func refDecodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// refSubmit is the status the old handler answered for body under the
// cap maxBody, with no sheds configured and no input root (so every
// input_path is refused), plus the tuples it queued on 202. It applies
// SubmitInline's checks as they were, and one rule of its own: a
// repeated tuples key (folded as encoding/json folds field names) is
// 400, where the old decode merged the arrays.
func refSubmit(sch *schema.Schema, body []byte, maxBody int64) (int, [][]string) {
	r := httptest.NewRequest("POST", "/api/v1/jobs", bytes.NewReader(body))
	r.Body = http.MaxBytesReader(httptest.NewRecorder(), r.Body, maxBody)
	var req refJobSubmitRequest
	if err := refDecodeBody(r, &req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return http.StatusRequestEntityTooLarge, nil
		}
		return http.StatusBadRequest, nil
	}
	if repeatedTuplesKey(body) {
		return http.StatusBadRequest, nil
	}
	switch {
	case len(req.Tuples) > 0 && req.InputPath != "":
		return http.StatusUnprocessableEntity, nil
	case len(req.Tuples) > 0:
		if len(req.Validated) == 0 {
			return http.StatusUnprocessableEntity, nil
		}
		for _, a := range req.Validated {
			if !sch.Has(a) {
				return http.StatusUnprocessableEntity, nil
			}
		}
		var out [][]string
		for _, tm := range req.Tuples {
			tu, err := schema.TupleFromMap(sch, tm)
			if err != nil {
				return http.StatusUnprocessableEntity, nil
			}
			out = append(out, tu.Vals.Strings())
		}
		return http.StatusAccepted, out
	default:
		// An input_path without an input root, or neither field.
		return http.StatusUnprocessableEntity, nil
	}
}

// repeatedTuplesKey reports whether the top-level object of a body that
// decoded cleanly has more than one key folding to "tuples".
func repeatedTuplesKey(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return false
	}
	n := 0
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		if k, _ := tok.(string); strings.EqualFold(k, "tuples") {
			n++
		}
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			return false
		}
	}
	return n > 1
}

// FuzzJobSubmitBody holds the one-pass submit to the whole-body decode
// it replaced: for any body, sent by each of bodyReaders, the status
// class equals the reference's, an accepted job's input.jsonl decodes
// to the reference's tuples, and a refused one leaves no job directory
// and no reservation. A body past submitMaxBody is also held to the
// reference under a cap above the window-edge bodies.
func FuzzJobSubmitBody(f *testing.F) {
	for _, tc := range submitEdges {
		f.Add([]byte(tc.body))
	}
	for _, body := range windowEdgeBodies() {
		f.Add(body)
	}
	h := newSubmitHarness(f)
	wide := newCappedSubmitHarness(f, 2*maxWindow)
	f.Fuzz(func(t *testing.T, body []byte) {
		h.check(t, body)
		if len(body) > submitMaxBody {
			wide.check(t, body)
		}
	})
}

// check submits body by each of bodyReaders and holds every answer to
// refSubmit's under the harness's cap.
func (h *submitHarness) check(t *testing.T, body []byte) {
	t.Helper()
	wantStatus, wantTuples := refSubmit(h.mgr.Schema(), body, h.maxBody)
	for _, br := range bodyReaders {
		rec := h.send(br.wrap(body))
		if rec.Code != wantStatus {
			t.Fatalf("%s: status %d (%s), reference %d, body %.300q", br.name, rec.Code, rec.Body, wantStatus, body)
		}
		if rec.Code != http.StatusAccepted {
			if got := h.entries(t); len(got) != 0 {
				t.Fatalf("%s: refused submit left %v in the jobs directory, body %.300q", br.name, got, body)
			}
			if q := h.mgr.Stats().Queued; q != 0 {
				t.Fatalf("%s: refused submit left %d backlog reservations, body %.300q", br.name, q, body)
			}
			continue
		}
		var j jobJSON
		if err := json.Unmarshal(rec.Body.Bytes(), &j); err != nil {
			t.Fatal(err)
		}
		got := h.inputTuples(t, j.ID)
		h.purge(t, j.ID)
		if len(got) != len(wantTuples) {
			t.Fatalf("%s: input.jsonl has %d tuples, reference %d, body %.300q", br.name, len(got), len(wantTuples), body)
		}
		for i := range got {
			if strings.Join(got[i], "\x00") != strings.Join(wantTuples[i], "\x00") {
				t.Fatalf("%s: tuple %d = %q, reference %q, body %.300q", br.name, i, got[i], wantTuples[i], body)
			}
		}
	}
}
