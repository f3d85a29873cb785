package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"cerfix"
	"cerfix/internal/dataset"
)

// Regression: /api/v1/master must encode items as [] — never null — when
// the store is empty or limit=0.
func TestMasterListRowsNeverNull(t *testing.T) {
	// Empty store.
	sys, err := cerfix.New(dataset.CustSchema(), dataset.PersonSchema(), dataset.DemoRulesDSL)
	if err != nil {
		t.Fatal(err)
	}
	empty := httptest.NewServer(New(sys).Handler())
	defer empty.Close()
	for _, url := range []string{
		empty.URL + "/api/v1/master",
		demoServer(t).URL + "/api/v1/master?limit=0",
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, body)
		}
		if strings.Contains(string(body), `"items":null`) {
			t.Fatalf("GET %s returned null items: %s", url, body)
		}
		if !strings.Contains(string(body), `"items":[]`) {
			t.Fatalf("GET %s missing empty items array: %s", url, body)
		}
	}
}

// Regression: the session and batch endpoints must agree on the
// validated-attribute order — schema order, not a lexicographic
// re-sort (the session path used to double-sort).
func TestValidatedOrderAgreesAcrossEndpoints(t *testing.T) {
	ts := demoServer(t)
	tuple := dataset.DemoInputFig3().Map()
	seed := []string{"zip", "phn", "type", "item"}

	// Batch path.
	var batch batchResponse
	doJSON(t, "POST", ts.URL+"/api/v1/fix", map[string]any{
		"validated": seed,
		"tuples":    []map[string]string{tuple},
	}, 200, &batch)
	if len(batch.Results) != 1 {
		t.Fatalf("batch results = %d", len(batch.Results))
	}
	batchOrder := batch.Results[0].Validated

	// Session path: assert the same four attributes at their current
	// values, which drives the same chase.
	var sess sessionJSON
	doJSON(t, "POST", ts.URL+"/api/v1/sessions", map[string]any{"tuple": tuple}, 201, &sess)
	assertions := map[string]string{}
	for _, a := range seed {
		assertions[a] = tuple[a]
	}
	var validated struct {
		Session sessionJSON `json:"session"`
	}
	doJSON(t, "POST", ts.URL+"/api/v1/sessions/"+strconv.FormatInt(sess.ID, 10)+"/validate",
		map[string]any{"assertions": assertions}, 200, &validated)
	sessOrder := validated.Session.Validated

	if strings.Join(batchOrder, ",") != strings.Join(sessOrder, ",") {
		t.Fatalf("endpoints disagree on validated order:\n batch   %v\n session %v", batchOrder, sessOrder)
	}
	// And that shared order is schema order, not alphabetical.
	sch := dataset.CustSchema()
	last := -1
	for _, a := range batchOrder {
		i, ok := sch.Index(a)
		if !ok {
			t.Fatalf("unknown attr %q in validated list", a)
		}
		if i <= last {
			t.Fatalf("validated list %v is not in schema order", batchOrder)
		}
		last = i
	}
	if len(batchOrder) < 2 {
		t.Fatalf("validated list too small to check ordering: %v", batchOrder)
	}
}
