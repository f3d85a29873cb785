package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"cerfix"
	"cerfix/internal/dataset"
	"cerfix/internal/jobs"
	"cerfix/internal/pipeline"
	"cerfix/internal/schema"
)

// This file pins the one-pass POST /api/v1/fix: for any body it answers
// what the whole-body decode it replaced answered (kept below as the
// reference) — the status, the error code, the text of every 422, and
// on 200 the response bytes, which carry every input value: a result
// holds the fixed tuple and the old value of each rewrite.

// fixMaxBody is the -max-body cap of the /fix harness: large enough for
// bodies that outgrow the reader's largest window.
const fixMaxBody = 512 << 10

// fixHarness is a demo server with the fixMaxBody cap.
type fixHarness struct {
	sys *cerfix.System
	h   http.Handler
}

func newFixHarness(tb testing.TB) *fixHarness {
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
	srv.SetLimits(Limits{MaxBody: fixMaxBody})
	return &fixHarness{sys: sys, h: srv.Handler()}
}

// bodyReaders are the ways the parity tests send a body: whole, with
// its length declared, and, as a network body arrives, a byte or half a
// read at a time with no length declared, which gives the reader a
// window of maxWindow bytes.
var bodyReaders = []struct {
	name string
	wrap func([]byte) io.Reader
}{
	{"whole", func(b []byte) io.Reader { return bytes.NewReader(b) }},
	{"one byte per read", func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) }},
	{"half per read", func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) }},
}

// check posts body through ServeHTTP by each of bodyReaders and holds
// every answer to refFix's. It returns the answer to the whole body.
func (h *fixHarness) check(t *testing.T, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	want := refFix(h.sys, body)
	var first *httptest.ResponseRecorder
	for _, br := range bodyReaders {
		rec := httptest.NewRecorder()
		h.h.ServeHTTP(rec, httptest.NewRequest("POST", "/api/v1/fix", br.wrap(body)))
		if first == nil {
			first = rec
		}
		if rec.Code != want.status {
			t.Fatalf("%s: status %d (%s), reference %d, body %.300q", br.name, rec.Code, rec.Body, want.status, body)
		}
		if rec.Code == http.StatusOK {
			if !bytes.Equal(rec.Body.Bytes(), want.resp) {
				t.Fatalf("%s: response bytes differ from the reference:\n got %s\nwant %s\nbody %.300q", br.name, rec.Body, want.resp, body)
			}
			continue
		}
		env := decodeEnvelope(t, rec.Body.Bytes())
		if env.Error.Code != want.code {
			t.Fatalf("%s: code %q, reference %q, body %.300q", br.name, env.Error.Code, want.code, body)
		}
		if want.status == http.StatusUnprocessableEntity && !want.sameMsg(env.Error.Message) {
			t.Fatalf("%s: message %q, reference %q, body %.300q", br.name, env.Error.Message, want.msg, body)
		}
	}
	return first
}

var escJSON = func() string {
	// The escape-heavy tuple of TestBatchFixResponseBytesUnchanged.
	b, _ := json.Marshal(schema.MustTuple(dataset.CustSchema(),
		`qu"ote`, `back\slash`, "a&b", "<tag>", "nl\n", "é漢🚀", " ", "\x01", "x").Map())
	return string(b)
}()

// overCap is a run of tuples longer than fixMaxBody.
var overCap = strings.Repeat(fig3JSON+",", fixMaxBody/len(fig3JSON)+1)

// fixEdges is the edge table of POST /api/v1/fix. Status, code and msg
// are what the whole-body decode answered (refFix, which also holds
// every row to it), except the repeated-tuples rows, which merged the
// arrays there. Rows up to 64 KiB also seed FuzzFixBody.
var fixEdges = []struct {
	name   string
	body   string
	status int
	code   string
	msg    string
}{
	{"plain", `{` + okValidated + `,"tuples":[` + fig3JSON + `]}`, 200, "", ""},
	{"escape-heavy tuple", `{` + okValidated + `,"tuples":[` + escJSON + `,` + fig3JSON + `]}`, 200, "", ""},
	{"escape after a tuple", `{` + okValidated + `,"tuples":[` + fig3JSON + `,` + escJSON + `,` + fig3JSON + `]}`, 200, "", ""},
	{"tuples first", `{"tuples":[` + fig3JSON + `,` + escJSON + `],` + okValidated + `}`, 200, "", ""},
	{"folded key after tuples", `{"tuples":[` + fig3JSON + `],"VALIDATED":["zip","phn","type","item"]}`, 200, "", ""},
	{"key folded", `{"VALIDATED":["zip","phn","type","item"],"Tuples":[` + fig3JSON + `]}`, 200, "", ""},
	{"escaped key", `{` + okValidated + `,"tu\u0070les":[` + fig3JSON + `]}`, 200, "", ""},
	{"escaped validated", `{"validated":["zip","ph\u006e","type","item"],"tuples":[` + fig3JSON + `]}`, 200, "", ""},
	{"null element", `{` + okValidated + `,"tuples":[` + fig3JSON + `,null]}`, 200, "", ""},
	{"whitespace everywhere", " \n{ \"validated\" :\t[ \"zip\" , \"phn\" ] ,\r\n\"tuples\" : [ " + fig3JSON + " , { } ] } ", 200, "", ""},
	{"trailing garbage", `{` + okValidated + `,"tuples":[` + fig3JSON + `]} }}not json`, 200, "", ""},
	{"repeated validated last wins", `{"validated":["bogus"],"tuples":[` + fig3JSON + `],` + okValidated + `}`, 200, "", ""},
	{"element past the largest window", `{` + okValidated + `,"tuples":[{"str":"` + strings.Repeat("y", 100<<10) + `"},` + fig3JSON + `]}`, 200, "", ""},
	{"body past the largest window", `{` + okValidated + `,"tuples":[` + strings.Repeat(escJSON+","+fig3JSON+",", 1000) + fig3JSON + `]}`, 200, "", ""},
	{"repeated validated last loses", `{` + okValidated + `,"tuples":[` + fig3JSON + `],"validated":["bogus"]}`,
		422, codeInvalidInput, `unknown attribute "bogus"`},
	{"null body", `null`, 422, codeInvalidInput, "validated attribute list required"},
	{"empty object", `{}`, 422, codeInvalidInput, "validated attribute list required"},
	{"empty validated", `{"validated":[],"tuples":[` + fig3JSON + `]}`, 422, codeInvalidInput, "validated attribute list required"},
	{"empty validated before a bad tuple", `{"validated":[],"tuples":[{"bogus":"x"}]}`, 422, codeInvalidInput, "validated attribute list required"},
	{"null tuples", `{` + okValidated + `,"tuples":null}`, 422, codeInvalidInput, "no tuples"},
	{"empty tuples", `{` + okValidated + `,"tuples":[]}`, 422, codeInvalidInput, "no tuples"},
	{"unknown validated", `{"validated":["bogus"],"tuples":[` + fig3JSON + `]}`, 422, codeInvalidInput, `unknown attribute "bogus"`},
	{"unknown validated before a bad tuple", `{"validated":["bogus"],"tuples":[{"bogus":"x"}]}`, 422, codeInvalidInput, `unknown attribute "bogus"`},
	{"unknown attribute", `{` + okValidated + `,"tuples":[` + fig3JSON + `,{"bogus":"x"},{"bogus2":"y"}]}`,
		422, codeInvalidInput, `tuple 1: schema CUST: unknown attribute "bogus"`},
	{"unknown attribute, validated last", `{"tuples":[{"bogus":"x"}],"validated":["zip"]}`,
		422, codeInvalidInput, `tuple 0: schema CUST: unknown attribute "bogus"`},
	{"unknown key", `{` + okValidated + `,"tuples":[` + fig3JSON + `],"extra":1}`, 400, codeInvalidArgument, ""},
	{"input_path", `{` + okValidated + `,"input_path":"/x.csv"}`, 400, codeInvalidArgument, ""},
	{"schema error then type error", `{` + okValidated + `,"tuples":[{"bogus":"x"},{"zip":1}]}`, 400, codeInvalidArgument, ""},
	{"schema error then syntax error", `{` + okValidated + `,"tuples":[{"bogus":"x"},{"zip":}]}`, 400, codeInvalidArgument, ""},
	{"repeated tuples", `{` + okValidated + `,"tuples":[{"zip":"1"}],"tuples":[{"FN":"x"}]}`, 400, codeInvalidArgument, ""},
	{"repeated folded tuples", `{` + okValidated + `,"tuples":[` + fig3JSON + `],"TUPLES":[` + fig3JSON + `]}`, 400, codeInvalidArgument, ""},
	{"empty body", ``, 400, codeInvalidArgument, ""},
	{"array body", `[]`, 400, codeInvalidArgument, ""},
	{"number element", `{` + okValidated + `,"tuples":[` + fig3JSON + `,1]}`, 400, codeInvalidArgument, ""},
	{"number value", `{` + okValidated + `,"tuples":[{"zip":1}]}`, 400, codeInvalidArgument, ""},
	{"string validated", `{"validated":"zip","tuples":[` + fig3JSON + `]}`, 400, codeInvalidArgument, ""},
	{"unterminated object", `{` + okValidated + `,"tuples":[` + fig3JSON, 400, codeInvalidArgument, ""},
	{"over the cap inside tuples", `{` + okValidated + `,"tuples":[` + overCap + fig3JSON + `]}`, 413, codeBodyTooLarge, ""},
	{"type error then over the cap", `{"validated":"zip","tuples":[` + overCap + fig3JSON + `]}`, 413, codeBodyTooLarge, ""},
	{"syntax error then over the cap", `{` + okValidated + `,"tuples":[{"zip":},` + overCap + `]}`, 400, codeInvalidArgument, ""},
}

func TestFixBodyEdgeTable(t *testing.T) {
	h := newFixHarness(t)
	for _, tc := range fixEdges {
		rec := h.check(t, []byte(tc.body))
		if rec.Code != tc.status {
			t.Fatalf("%s: status %d (%s), want %d", tc.name, rec.Code, rec.Body, tc.status)
		}
		if tc.status == http.StatusOK {
			continue
		}
		env := decodeEnvelope(t, rec.Body.Bytes())
		if env.Error.Code != tc.code {
			t.Fatalf("%s: code %q, want %q", tc.name, env.Error.Code, tc.code)
		}
		if tc.msg != "" && env.Error.Message != tc.msg {
			t.Fatalf("%s: message %q, want %q", tc.name, env.Error.Message, tc.msg)
		}
	}
}

// windowEdgeBodies are /fix and /jobs bodies a little over maxWindow
// bytes, so that the reader's first window ends inside them whether or
// not their length is declared. A first tuples element of every length
// over one period slides that edge across every byte of the element
// after it (its keys, values, separators and multi-byte runes) or, with
// tuples first, across every byte of the members after the array: the
// closing bracket, the validated member and, in a body /jobs refuses
// for holding tuples and a path and /fix for an unknown key, the
// input_path and format members.
func windowEdgeBodies() [][]byte {
	multi := `{"FN":"Mårk","LN":"Smith","AC":"131","phn":"075568485","type":"2","str":"20 Bäker St 漢🚀","city":"Lon","zip":"NW1 6XE","item":"CD"}`
	pad := func(k int) string { return `{"str":"` + strings.Repeat("x", k) + `"}` }
	var out [][]byte
	// The edge falls j bytes after the first element's end: before and
	// after the comma ahead of multi, inside multi, and before and after
	// the comma behind it.
	head := `{` + okValidated + `,"tuples":[`
	for j := 0; j <= len(multi)+2; j++ {
		k := maxWindow - len(head) - len(pad(0)) - j
		out = append(out, []byte(head+pad(k)+strings.Repeat(","+multi, 2)+`]}`))
	}
	// The edge falls j bytes into the tail, from multi's last byte
	// through the closing brace.
	head, tail := `{"tuples":[`, `],`+okValidated+`}`
	for j := -1; j <= len(tail); j++ {
		k := maxWindow - len(head) - len(pad(0)) - len(multi) - 1 - j
		out = append(out, []byte(head+pad(k)+","+multi+tail))
	}
	tail = `],` + okValidated + `,"input_path":"/x.csv","format":"csv"}`
	for j := 0; j <= len(tail); j++ {
		k := maxWindow - len(head) - len(pad(0)) - j
		out = append(out, []byte(head+pad(k)+tail))
	}
	return out
}

// FuzzFixBody holds the one-pass POST /fix to the whole-body decode it
// replaced: for any body, the status and error code equal the
// reference's, a 422 has its text, and a 200 its response bytes.
func FuzzFixBody(f *testing.F) {
	for _, tc := range submitEdges {
		f.Add([]byte(tc.body))
	}
	for _, tc := range fixEdges {
		if len(tc.body) <= 64<<10 {
			f.Add([]byte(tc.body))
		}
	}
	for _, body := range windowEdgeBodies() {
		f.Add(body)
	}
	h := newFixHarness(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		h.check(t, body)
	})
}

// A body that arrives a byte per read costs the reader time linear in
// its length: a unit the window edge cuts is parsed again only once the
// window has filled again. Parsed again after every read, one 1 MiB
// element sent a byte per read cost about 5·10¹¹ bytes of scanning and
// copying, minutes where this takes well under a second.
func TestSlowBodyReadIsLinear(t *testing.T) {
	h := New(demoSys(t)).Handler()
	body := `{` + okValidated + `,"tuples":[{"str":"` + strings.Repeat("y", 1<<20) + `"},` + fig3JSON + `]}`
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/api/v1/fix", iotest.OneByteReader(strings.NewReader(body))))
		done <- rec
	}()
	select {
	case rec := <-done:
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d (%s), want 200", rec.Code, rec.Body)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a 1 MiB element sent a byte per read took over 10 s to fix")
	}
}

// --- reference: the whole-body decode -------------------------------

// refBatchRequest and refTupleFromMap are the request struct and the
// tuple conversion POST /api/v1/fix used before the one-pass reader, kept
// verbatim with refDecodeBody (submit_test.go) as the reference for
// FuzzFixBody.
type refBatchRequest struct {
	// Validated lists the attributes the caller asserts correct on
	// every tuple.
	Validated []string `json:"validated"`
	// Tuples are the input rows (attribute → value).
	Tuples []map[string]string `json:"tuples"`
}

// refTupleFromMap builds an input tuple, rejecting unknown attributes.
func refTupleFromMap(sch *cerfix.Schema, m map[string]string) (*cerfix.Tuple, error) {
	return schema.TupleFromMap(sch, m)
}

// refFixAnswer is the reference's answer to one body.
type refFixAnswer struct {
	status int
	code   string
	msg    string
	// unknown lists, for a 422 on a tuple, every unknown attribute of
	// that tuple: TupleFromMap names the first its map iteration meets,
	// so either side may name any of them.
	unknown []string
	badAt   int
	resp    []byte // the 200 response
}

// sameMsg reports whether a 422 message says what the reference says.
func (a refFixAnswer) sameMsg(msg string) bool {
	if msg == a.msg {
		return true
	}
	for _, k := range a.unknown {
		if msg == fmt.Sprintf("tuple %d: schema %s: unknown attribute %q", a.badAt, dataset.CustSchema().Name(), k) {
			return true
		}
	}
	return false
}

// refFix is what the old handler answered for body under the harness's
// cap, with one rule of refSubmit's: a repeated tuples key (folded as
// encoding/json folds field names) is 400, where the old decode merged
// the arrays. The 200 response is built the pre-change way: results
// materialized as TupleResults and marshaled with json.Encoder.
func refFix(sys *cerfix.System, body []byte) refFixAnswer {
	r := httptest.NewRequest("POST", "/api/v1/fix", bytes.NewReader(body))
	r.Body = http.MaxBytesReader(httptest.NewRecorder(), r.Body, fixMaxBody)
	var req refBatchRequest
	if err := refDecodeBody(r, &req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return refFixAnswer{status: http.StatusRequestEntityTooLarge, code: codeBodyTooLarge}
		}
		return refFixAnswer{status: http.StatusBadRequest, code: codeInvalidArgument}
	}
	if repeatedTuplesKey(body) {
		return refFixAnswer{status: http.StatusBadRequest, code: codeInvalidArgument}
	}
	invalid := func(msg string) refFixAnswer {
		return refFixAnswer{status: http.StatusUnprocessableEntity, code: codeInvalidInput, msg: msg}
	}
	if len(req.Validated) == 0 {
		return invalid("validated attribute list required")
	}
	if len(req.Tuples) == 0 {
		return invalid("no tuples")
	}
	input := sys.InputSchema()
	for _, a := range req.Validated {
		if !input.Has(a) {
			return invalid(fmt.Sprintf("unknown attribute %q", a))
		}
	}
	tuples := make([]*cerfix.Tuple, len(req.Tuples))
	for i, tm := range req.Tuples {
		tu, err := refTupleFromMap(input, tm)
		if err != nil {
			a := invalid(fmt.Errorf("tuple %d: %w", i, err).Error())
			a.badAt = i
			for k := range tm {
				if !input.Has(k) {
					a.unknown = append(a.unknown, k)
				}
			}
			return a
		}
		tuples[i] = tu
	}
	seed := schema.SetOfNames(input, req.Validated...)
	ref := batchResponse{Results: make([]batchTupleResult, 0, len(tuples))}
	for _, tu := range tuples {
		res := sys.Engine().Chase(tu, seed)
		ref.Results = append(ref.Results, jobs.NewTupleResult(input, &pipeline.Result{Input: tu, Fixed: res.Tuple, Chase: res}))
		if res.AllValidated() && len(res.Conflicts) == 0 {
			ref.FullyValidated++
		}
		ref.CellsRewritten += len(res.Rewrites())
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(ref); err != nil {
		panic(err)
	}
	return refFixAnswer{status: http.StatusOK, resp: want.Bytes()}
}
