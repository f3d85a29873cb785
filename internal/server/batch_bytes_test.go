package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"cerfix"
	"cerfix/internal/dataset"
	"cerfix/internal/jobs"
	"cerfix/internal/pipeline"
	"cerfix/internal/schema"
)

// TestBatchFixResponseBytesUnchanged pins POST /api/v1/fix's exact
// response bytes across the switch from marshaling a batchResponse to
// rendering incrementally with jobs.ResultEncoder under the
// pipeline's recycling contract: the body must equal
// json.Encoder(batchResponse built the pre-change way) byte for byte —
// trailing newline included — for fixes, confirmations, conflicts and
// escape-heavy values.
func TestBatchFixResponseBytesUnchanged(t *testing.T) {
	ts := demoServer(t)
	sch := dataset.CustSchema()

	tuples := []map[string]string{
		dataset.DemoInputFig3().Map(),
		dataset.DemoInputExample1().Map(),
		// Validated wrong FN: φ4 derives "Mark" → ValidatedContradiction.
		schema.MustTuple(sch, "Wrong", "Smith", "201", "075568485", "2", "s", "c", "NW1 6XE", "i").Map(),
		// Escape-heavy values that no rule touches.
		schema.MustTuple(sch, `qu"ote`, `back\slash`, "a&b", "<tag>", "nl\n", "é漢🚀", " ", "\x01", "x").Map(),
	}
	validated := []string{"FN", "phn", "type", "item"}

	body, err := json.Marshal(map[string]any{"validated": validated, "tuples": tuples})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/api/v1/fix", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}

	// Reference: the pre-change construction — a fresh system with the
	// same data, results materialized as TupleResults, marshaled with
	// json.Encoder (writeJSON's path).
	sys, err := cerfix.New(sch, dataset.PersonSchema(), dataset.DemoRulesDSL)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range dataset.DemoMasterRows() {
		if err := sys.AddMasterRow(row.Strings()...); err != nil {
			t.Fatal(err)
		}
	}
	seed := schema.SetOfNames(sch, validated...)
	ref := batchResponse{Results: make([]batchTupleResult, 0, len(tuples))}
	for _, tm := range tuples {
		tu, err := schema.TupleFromMap(sch, tm)
		if err != nil {
			t.Fatal(err)
		}
		res := sys.Engine().Chase(tu, seed)
		ref.Results = append(ref.Results, jobs.NewTupleResult(sch, &pipeline.Result{Input: tu, Fixed: res.Tuple, Chase: res}))
		if res.AllValidated() && len(res.Conflicts) == 0 {
			ref.FullyValidated++
		}
		ref.CellsRewritten += len(res.Rewrites())
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(ref); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("response bytes changed:\n got %s\nwant %s", got, want.Bytes())
	}

	// Sanity: the conflict case actually exercised the conflicts field.
	if !bytes.Contains(got, []byte(`"conflicts":[`)) {
		t.Fatal("test fixture no longer produces conflicts; coverage hole")
	}
}
