package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cerfix"
	"cerfix/internal/dataset"
)

func demoServer(t *testing.T) *httptest.Server {
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
	ts := httptest.NewServer(New(sys).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func doJSON(t *testing.T, method, url string, body any, wantStatus int, out any) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var msg bytes.Buffer
		_, _ = msg.ReadFrom(resp.Body)
		t.Fatalf("%s %s = %d, want %d: %s", method, url, resp.StatusCode, wantStatus, msg.String())
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

func TestStatus(t *testing.T) {
	ts := demoServer(t)
	var st statusResponse
	doJSON(t, "GET", ts.URL+"/api/v1/status", nil, 200, &st)
	if st.MasterTuples != 3 || st.Rules != 9 {
		t.Fatalf("status = %+v", st)
	}
	if !strings.HasPrefix(st.InputSchema, "CUST(") {
		t.Fatalf("input schema = %q", st.InputSchema)
	}
	// Memory accounting is always present; an in-memory demo system
	// has no persistence provenance.
	if st.Memory == nil || st.Memory.Table.Rows != 3 || st.Memory.TotalBytes() <= 0 {
		t.Fatalf("memory status = %+v", st.Memory)
	}
	if st.Memory.RuleIndexKeys == 0 || st.Memory.RuleIndexBytes <= 0 {
		t.Fatalf("rule-index accounting not surfaced: %+v", st.Memory)
	}
	if st.Persistence != nil {
		t.Fatalf("persistence = %+v for an in-memory system", st.Persistence)
	}
}

func TestRulesCRUD(t *testing.T) {
	ts := demoServer(t)
	var rules []ruleJSON
	doJSON(t, "GET", ts.URL+"/api/v1/rules", nil, 200, &rules)
	if len(rules) != 9 || rules[0].ID != "phi1" {
		t.Fatalf("rules = %+v", rules)
	}
	doJSON(t, "POST", ts.URL+"/api/v1/rules",
		map[string]string{"dsl": `extra: match zip~zip set FN := FN`}, 201, nil)
	doJSON(t, "GET", ts.URL+"/api/v1/rules", nil, 200, &rules)
	if len(rules) != 10 {
		t.Fatalf("rules after add = %d", len(rules))
	}
	// Bad rule rejected.
	doJSON(t, "POST", ts.URL+"/api/v1/rules",
		map[string]string{"dsl": `bad: match zip~zip set bogus := FN`}, 422, nil)
	// Delete.
	doJSON(t, "DELETE", ts.URL+"/api/v1/rules/extra", nil, 200, nil)
	doJSON(t, "DELETE", ts.URL+"/api/v1/rules/extra", nil, 404, nil)
	doJSON(t, "GET", ts.URL+"/api/v1/rules", nil, 200, &rules)
	if len(rules) != 9 {
		t.Fatalf("rules after delete = %d", len(rules))
	}
}

func TestRulesCheck(t *testing.T) {
	ts := demoServer(t)
	var out struct {
		Consistent bool        `json:"consistent"`
		Issues     []issueJSON `json:"issues"`
		ProbesRun  int         `json:"probes_run"`
	}
	doJSON(t, "POST", ts.URL+"/api/v1/rules/check", nil, 200, &out)
	if !out.Consistent {
		t.Fatalf("demo rules inconsistent: %+v", out.Issues)
	}
	if out.ProbesRun == 0 {
		t.Fatal("no probes")
	}
	// Warnings present (cross-entity) but severity != error.
	for _, is := range out.Issues {
		if is.Severity == "error" {
			t.Fatalf("error issue: %+v", is)
		}
	}
}

func TestRegionsEndpoint(t *testing.T) {
	ts := demoServer(t)
	var regions []regionJSON
	doJSON(t, "GET", ts.URL+"/api/v1/regions?k=2", nil, 200, &regions)
	if len(regions) == 0 || regions[0].Size != 4 {
		t.Fatalf("regions = %+v", regions)
	}
	doJSON(t, "GET", ts.URL+"/api/v1/regions?k=bogus", nil, 400, nil)
}

func TestMasterEndpoints(t *testing.T) {
	ts := demoServer(t)
	var list struct {
		Total int                 `json:"total"`
		Items []map[string]string `json:"items"`
	}
	doJSON(t, "GET", ts.URL+"/api/v1/master", nil, 200, &list)
	if list.Total != 3 || len(list.Items) != 3 {
		t.Fatalf("master = %+v", list)
	}
	if list.Items[0]["FN"] != "Robert" {
		t.Fatalf("row 0 = %v", list.Items[0])
	}
	doJSON(t, "POST", ts.URL+"/api/v1/master", map[string]any{
		"values": map[string]string{"FN": "New", "LN": "Person", "zip": "XX1 1XX"},
	}, 201, nil)
	doJSON(t, "GET", ts.URL+"/api/v1/master?limit=2", nil, 200, &list)
	if list.Total != 4 || len(list.Items) != 2 {
		t.Fatalf("after add = %+v", list)
	}
	// Offset pages through the remainder.
	doJSON(t, "GET", ts.URL+"/api/v1/master?limit=2&offset=3", nil, 200, &list)
	if list.Total != 4 || len(list.Items) != 1 {
		t.Fatalf("offset page = %+v", list)
	}
	doJSON(t, "GET", ts.URL+"/api/v1/master?limit=bogus", nil, 400, nil)
	doJSON(t, "POST", ts.URL+"/api/v1/master", map[string]any{
		"values": map[string]string{"bogus": "x"},
	}, 422, nil)
}

// The full Fig. 3 walkthrough over HTTP.
func TestSessionWalkthrough(t *testing.T) {
	ts := demoServer(t)
	var sess sessionJSON
	doJSON(t, "POST", ts.URL+"/api/v1/sessions", map[string]any{
		"tuple": dataset.DemoInputFig3().Map(),
	}, 201, &sess)
	if sess.Done || len(sess.Suggestion) == 0 {
		t.Fatalf("opened session = %+v", sess)
	}
	var round1 struct {
		Session sessionJSON  `json:"session"`
		Changes []changeJSON `json:"changes"`
	}
	doJSON(t, "POST", fmt.Sprintf("%s/api/v1/sessions/%d/validate", ts.URL, sess.ID), map[string]any{
		"assertions": map[string]string{"AC": "201", "phn": "075568485", "type": "2", "item": "DVD"},
	}, 200, &round1)
	if round1.Session.Tuple["FN"] != "Mark" {
		t.Fatalf("FN = %q", round1.Session.Tuple["FN"])
	}
	foundFN := false
	for _, c := range round1.Changes {
		if c.Attr == "FN" && c.RuleID == "phi4" && c.Old == "M." && c.New == "Mark" {
			foundFN = true
		}
	}
	if !foundFN {
		t.Fatalf("FN change missing: %+v", round1.Changes)
	}
	if strings.Join(round1.Session.Suggestion, ",") != "zip" {
		t.Fatalf("suggestion = %v", round1.Session.Suggestion)
	}
	// Round 2.
	var round2 struct {
		Session sessionJSON `json:"session"`
	}
	doJSON(t, "POST", fmt.Sprintf("%s/api/v1/sessions/%d/validate", ts.URL, sess.ID), map[string]any{
		"assertions": map[string]string{"zip": "NW1 6XE"},
	}, 200, &round2)
	if !round2.Session.Done || !round2.Session.Certain {
		t.Fatalf("final session = %+v", round2.Session)
	}
	// GET mirrors the state.
	var got sessionJSON
	doJSON(t, "GET", fmt.Sprintf("%s/api/v1/sessions/%d", ts.URL, sess.ID), nil, 200, &got)
	if !got.Done || got.Rounds != 2 {
		t.Fatalf("GET session = %+v", got)
	}
}

// A master insert drops the server's monitor, but session IDs keep
// counting: the session opened before the insert stays readable under
// its own ID instead of being replaced by the next one.
func TestSessionIDsSurviveMasterInsert(t *testing.T) {
	ts := demoServer(t)
	open := func(fn string) sessionJSON {
		tu := dataset.DemoInputFig3().Map()
		tu["FN"] = fn
		var sess sessionJSON
		doJSON(t, "POST", ts.URL+"/api/v1/sessions", map[string]any{"tuple": tu}, 201, &sess)
		return sess
	}
	alice := open("Alice")
	doJSON(t, "POST", ts.URL+"/api/v1/master", map[string]any{
		"values": map[string]string{"FN": "New", "LN": "Person", "zip": "XX1 1XX"},
	}, 201, nil)
	bob := open("Bob")
	if bob.ID == alice.ID {
		t.Fatalf("Bob's session reuses Alice's ID %d", alice.ID)
	}
	for _, want := range []sessionJSON{alice, bob} {
		var got sessionJSON
		doJSON(t, "GET", fmt.Sprintf("%s/api/v1/sessions/%d", ts.URL, want.ID), nil, 200, &got)
		if got.Tuple["FN"] != want.Tuple["FN"] {
			t.Fatalf("GET session %d: FN = %q, want %q", want.ID, got.Tuple["FN"], want.Tuple["FN"])
		}
	}
}

func TestSessionErrors(t *testing.T) {
	ts := demoServer(t)
	doJSON(t, "GET", ts.URL+"/api/v1/sessions/99", nil, 404, nil)
	doJSON(t, "POST", ts.URL+"/api/v1/sessions", map[string]any{
		"tuple": map[string]string{"bogus": "x"},
	}, 422, nil)
	var sess sessionJSON
	doJSON(t, "POST", ts.URL+"/api/v1/sessions", map[string]any{
		"tuple": dataset.DemoInputFig3().Map(),
	}, 201, &sess)
	doJSON(t, "POST", fmt.Sprintf("%s/api/v1/sessions/%d/validate", ts.URL, sess.ID), map[string]any{
		"assertions": map[string]string{},
	}, 422, nil)
	doJSON(t, "POST", fmt.Sprintf("%s/api/v1/sessions/%d/validate", ts.URL, sess.ID), map[string]any{
		"assertions": map[string]string{"bogus": "x"},
	}, 422, nil)
	doJSON(t, "POST", ts.URL+"/api/v1/sessions/99/validate", map[string]any{
		"assertions": map[string]string{"zip": "x"},
	}, 404, nil)
}

func TestAuditEndpoints(t *testing.T) {
	ts := demoServer(t)
	var sess sessionJSON
	doJSON(t, "POST", ts.URL+"/api/v1/sessions", map[string]any{
		"tuple": dataset.DemoInputFig3().Map(),
	}, 201, &sess)
	doJSON(t, "POST", fmt.Sprintf("%s/api/v1/sessions/%d/validate", ts.URL, sess.ID), map[string]any{
		"assertions": map[string]string{"AC": "201", "phn": "075568485", "type": "2", "item": "DVD"},
	}, 200, nil)

	var stats struct {
		PerAttr []attrStatsJSON `json:"per_attr"`
		Overall attrStatsJSON   `json:"overall"`
	}
	doJSON(t, "GET", ts.URL+"/api/v1/audit/stats", nil, 200, &stats)
	if stats.Overall.UserValidated != 4 {
		t.Fatalf("overall = %+v", stats.Overall)
	}
	if len(stats.PerAttr) == 0 {
		t.Fatal("no per-attr stats")
	}

	var hist []auditRecordJSON
	doJSON(t, "GET", fmt.Sprintf("%s/api/v1/audit/tuples/%d", ts.URL, sess.ID), nil, 200, &hist)
	if len(hist) < 5 {
		t.Fatalf("history = %+v", hist)
	}

	var cell auditRecordJSON
	doJSON(t, "GET", fmt.Sprintf("%s/api/v1/audit/cell?tuple=%d&attr=FN", ts.URL, sess.ID), nil, 200, &cell)
	if cell.RuleID != "phi4" || cell.New != "Mark" {
		t.Fatalf("cell = %+v", cell)
	}
	doJSON(t, "GET", ts.URL+"/api/v1/audit/cell?tuple=999&attr=FN", nil, 404, nil)
	doJSON(t, "GET", ts.URL+"/api/v1/audit/cell?tuple=bogus&attr=FN", nil, 400, nil)
	doJSON(t, "GET", fmt.Sprintf("%s/api/v1/audit/cell?tuple=%d", ts.URL, sess.ID), nil, 400, nil)
}

func TestMalformedBodies(t *testing.T) {
	ts := demoServer(t)
	req, _ := http.NewRequest("POST", ts.URL+"/api/v1/rules", strings.NewReader("{nonsense"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("malformed body = %d", resp.StatusCode)
	}
	req2, _ := http.NewRequest("POST", ts.URL+"/api/v1/sessions", strings.NewReader(`{"unknown_field": 1}`))
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 400 {
		t.Fatalf("unknown field = %d", resp2.StatusCode)
	}
}

// TestStatusCounterJSONKeys is the regression net for the status
// document's counter shapes: every cumulative counter (the admission
// shed totals) marshals through counter.Monotonic, and this pins the
// snake_case keys and bare-number encoding clients depend on, plus the
// memory section and the absence of the retired kernels section.
func TestStatusCounterJSONKeys(t *testing.T) {
	ts := demoServer(t)
	// Run one sync fix so the status reflects a served request.
	var fixOut map[string]any
	doJSON(t, "POST", ts.URL+"/api/v1/fix", json.RawMessage(fixPayload()), 200, &fixOut)

	resp, err := http.Get(ts.URL + "/api/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}

	section := func(m map[string]any, key string) map[string]any {
		t.Helper()
		v, ok := m[key].(map[string]any)
		if !ok {
			t.Fatalf("status missing object %q: %v", key, m[key])
		}
		return v
	}
	num := func(m map[string]any, key string) float64 {
		t.Helper()
		v, ok := m[key].(float64)
		if !ok {
			t.Fatalf("counter %q not a bare number: %T %v", key, m[key], m[key])
		}
		return v
	}

	// Every shed code has its counter, present at zero before any shed.
	shed := section(section(doc, "admission"), "shed")
	keys := []string{"rate_limited", "overloaded", "backlog_full",
		"memory_pressure", "memory_degraded", "persistence_degraded"}
	for _, key := range keys {
		if n := num(shed, key); n != 0 {
			t.Fatalf("shed.%s = %v on an unloaded server", key, n)
		}
	}
	if len(shed) != len(keys) {
		t.Fatalf("shed = %v, want exactly the keys %v", shed, keys)
	}

	// There is no kernel choice left to report: the kernels section
	// must not come back.
	if k, ok := doc["kernels"]; ok {
		t.Fatalf("status has a kernels section: %v", k)
	}
	section(doc, "memory")
}
