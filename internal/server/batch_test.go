package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"cerfix"
	"cerfix/internal/dataset"
)

func TestBatchFix(t *testing.T) {
	ts := demoServer(t)
	var resp batchResponse
	doJSON(t, "POST", ts.URL+"/api/v1/fix", map[string]any{
		"validated": []string{"zip", "phn", "type", "item"},
		"tuples": []map[string]string{
			dataset.DemoInputFig3().Map(),
			dataset.DemoInputExample1().Map(),
		},
	}, 200, &resp)
	if len(resp.Results) != 2 {
		t.Fatalf("results = %d", len(resp.Results))
	}
	// Fig. 3 tuple: the 4 validated attributes form the mobile region —
	// fully fixed.
	r0 := resp.Results[0]
	if !r0.Done || r0.Tuple["FN"] != "Mark" || r0.Tuple["str"] != "20 Baker St" {
		t.Fatalf("result 0 = %+v", r0)
	}
	// Example 1 tuple: zip correct so AC fixed to 131.
	r1 := resp.Results[1]
	if r1.Tuple["AC"] != "131" || r1.Tuple["city"] != "Edi" {
		t.Fatalf("result 1 = %+v", r1)
	}
	if resp.FullyValidated < 1 || resp.CellsRewritten < 3 {
		t.Fatalf("aggregates = %+v", resp)
	}
	// Rewrites carry provenance.
	foundProv := false
	for _, c := range r0.Rewrites {
		if c.Attr == "FN" && c.RuleID == "phi4" {
			foundProv = true
		}
	}
	if !foundProv {
		t.Fatalf("FN rewrite provenance missing: %+v", r0.Rewrites)
	}
}

func TestBatchFixErrors(t *testing.T) {
	ts := demoServer(t)
	doJSON(t, "POST", ts.URL+"/api/v1/fix", map[string]any{
		"validated": []string{},
		"tuples":    []map[string]string{{"FN": "x"}},
	}, 422, nil)
	doJSON(t, "POST", ts.URL+"/api/v1/fix", map[string]any{
		"validated": []string{"zip"},
		"tuples":    []map[string]string{},
	}, 422, nil)
	doJSON(t, "POST", ts.URL+"/api/v1/fix", map[string]any{
		"validated": []string{"bogus"},
		"tuples":    []map[string]string{{"FN": "x"}},
	}, 422, nil)
	doJSON(t, "POST", ts.URL+"/api/v1/fix", map[string]any{
		"validated": []string{"zip"},
		"tuples":    []map[string]string{{"bogus": "x"}},
	}, 422, nil)
}

// The server is safe under concurrent mixed traffic: sessions, batch
// fixes, audits and rule reads racing on the shared system.
func TestServerConcurrentTraffic(t *testing.T) {
	ts := demoServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				switch (g + i) % 4 {
				case 0:
					var sess sessionJSON
					doJSONq(ts.URL+"/api/v1/sessions", map[string]any{
						"tuple": dataset.DemoInputFig3().Map(),
					}, &sess, errs)
					if sess.ID != 0 {
						doJSONq(fmt.Sprintf("%s/api/v1/sessions/%d/validate", ts.URL, sess.ID), map[string]any{
							"assertions": map[string]string{"zip": "NW1 6XE", "phn": "075568485", "type": "2", "item": "DVD"},
						}, nil, errs)
					}
				case 1:
					doJSONq(ts.URL+"/api/v1/fix", map[string]any{
						"validated": []string{"zip", "phn", "type", "item"},
						"tuples":    []map[string]string{dataset.DemoInputFig3().Map()},
					}, nil, errs)
				case 2:
					getq(ts.URL+"/api/v1/audit/stats", errs)
				default:
					getq(ts.URL+"/api/v1/rules", errs)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// genServer serves a system loaded with a generated workload and
// returns the dirty tuples to batch-fix.
func genServer(t *testing.T, entities, inputs int) (*httptest.Server, []map[string]string) {
	t.Helper()
	g := dataset.NewCustomerGen(11)
	w, err := g.GenerateWorkload(entities, inputs, 0.3, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := cerfix.New(dataset.CustSchema(), dataset.PersonSchema(), dataset.DemoRulesDSL)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range w.Entities {
		if err := sys.AddMasterRow(e.Master.Strings()...); err != nil {
			t.Fatal(err)
		}
	}
	tuples := make([]map[string]string, len(w.Dirty))
	for i, tu := range w.Dirty {
		tuples[i] = tu.Map()
	}
	ts := httptest.NewServer(New(sys).Handler())
	t.Cleanup(ts.Close)
	return ts, tuples
}

// Parallel identical batches on an unchanging system must all produce
// the same bytes — the pipeline's re-sequencing guarantee observed
// end-to-end through the HTTP layer.
func TestBatchFixParallelDeterministic(t *testing.T) {
	ts, tuples := genServer(t, 40, 120)
	req := map[string]any{
		"validated": []string{"zip", "phn", "type", "item"},
		"tuples":    tuples,
	}
	readBody := func() ([]byte, error) {
		resp, err := postJSON(ts.URL+"/api/v1/fix", req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			return nil, fmt.Errorf("status %d", resp.StatusCode)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	want, err := readBody()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := readBody()
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, want) {
				errs <- fmt.Errorf("parallel batch response differs from reference")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// Batch fixes race rule and master mutations: the snapshot taken
// under the lock must isolate in-flight batches from every mutation
// (the race detector proves no shared state leaks), and each response
// must stay well-formed.
func TestBatchFixParallelUnderMutation(t *testing.T) {
	ts, tuples := genServer(t, 30, 60)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				var resp batchResponse
				doJSONq(ts.URL+"/api/v1/fix", map[string]any{
					"validated": []string{"zip", "phn", "type", "item"},
					"tuples":    tuples,
				}, &resp, errs)
				if len(resp.Results) != len(tuples) {
					errs <- fmt.Errorf("batch returned %d results, want %d", len(resp.Results), len(tuples))
					return
				}
			}
		}()
	}
	// Mutators: master inserts and rule add/delete racing the batches.
	wg.Add(2)
	go func() {
		defer wg.Done()
		g := dataset.NewCustomerGen(77)
		for i, e := range g.GenerateEntities(40) {
			vals := make(map[string]string)
			for j, a := range dataset.PersonSchema().AttrNames() {
				vals[a] = string(e.Master[j]) + fmt.Sprint(1000+i) // keep keys unique
			}
			doJSONq(ts.URL+"/api/v1/master", map[string]any{"values": vals}, nil, errs)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			id := fmt.Sprintf("stress%d", i)
			doJSONq(ts.URL+"/api/v1/rules", map[string]any{
				"dsl": id + `: match zip~zip set str := str`,
			}, nil, errs)
			req, err := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/rules/"+id, nil)
			if err != nil {
				errs <- err
				continue
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				errs <- err
				continue
			}
			resp.Body.Close()
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// doJSONq is doJSON without *testing.T (for goroutines).
func doJSONq(url string, body any, out any, errs chan<- error) {
	resp, err := postJSON(url, body)
	if err != nil {
		errs <- err
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		errs <- fmt.Errorf("POST %s = %d", url, resp.StatusCode)
		return
	}
	if out != nil {
		if err := decodeJSONBody(resp, out); err != nil {
			errs <- err
		}
	}
}

func getq(url string, errs chan<- error) {
	resp, err := http.Get(url)
	if err != nil {
		errs <- err
		return
	}
	resp.Body.Close()
	if resp.StatusCode >= 300 {
		errs <- fmt.Errorf("GET %s = %d", url, resp.StatusCode)
	}
}

func TestSessionExplain(t *testing.T) {
	ts := demoServer(t)
	var sess sessionJSON
	doJSON(t, "POST", ts.URL+"/api/v1/sessions", map[string]any{
		"tuple": dataset.DemoInputFig3().Map(),
	}, 201, &sess)
	doJSON(t, "POST", fmt.Sprintf("%s/api/v1/sessions/%d/validate", ts.URL, sess.ID), map[string]any{
		"assertions": map[string]string{"AC": "201", "phn": "075568485", "type": "2", "item": "DVD"},
	}, 200, nil)
	var out struct {
		Suggestion  []string `json:"suggestion"`
		Explanation string   `json:"explanation"`
	}
	doJSON(t, "GET", fmt.Sprintf("%s/api/v1/sessions/%d/explain", ts.URL, sess.ID), nil, 200, &out)
	if len(out.Suggestion) != 1 || out.Suggestion[0] != "zip" {
		t.Fatalf("suggestion = %v", out.Suggestion)
	}
	if out.Explanation == "" {
		t.Fatal("empty explanation")
	}
	doJSON(t, "GET", ts.URL+"/api/v1/sessions/999/explain", nil, 404, nil)
}
