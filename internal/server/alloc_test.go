//go:build !race

package server

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"cerfix"
	"cerfix/internal/dataset"
)

// TestMasterListPageCost: a page of GET /master costs what the page
// holds, not what the master holds. The handler walks the shared rows
// and stops after offset+limit of them, so the same page allocates the
// same at 100 and at 5,000 entities. Excluded under the race detector,
// whose instrumentation allocates.
func TestMasterListPageCost(t *testing.T) {
	pageAllocs := func(entities int) float64 {
		t.Helper()
		sys, err := cerfix.New(dataset.CustSchema(), dataset.PersonSchema(), dataset.DemoRulesDSL)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range dataset.NewCustomerGen(11).GenerateEntities(entities) {
			if err := sys.AddMasterRow(e.Master.Strings()...); err != nil {
				t.Fatal(err)
			}
		}
		h := New(sys).Handler()
		return testing.AllocsPerRun(20, func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/master?limit=1&offset=10", nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("GET /master = %d: %s", rec.Code, rec.Body)
			}
		})
	}
	small, large := pageAllocs(100), pageAllocs(5000)
	t.Logf("allocs per page: %.0f at 100 entities, %.0f at 5,000", small, large)
	if large > small+8 {
		t.Fatalf("a one-row page allocates %.0f at 5,000 entities vs %.0f at 100: the cost follows the master size", large, small)
	}
}

// TestFixRequestAllocs: a 256-tuple /fix allocates a bounded number of
// times per tuple through ServeHTTP — body read, tuple copies, pipeline
// and response included. The pipeline's batches, the tuple batch, the
// body window and the response buffer are pooled across requests, so
// a request allocates the one backing string the decoder makes per
// tuple plus a constant (channels, goroutines, the decoder and the
// encoder): about 1.3 per tuple. Arenas that lived for one request
// cost about 8.5, and a decode of the body into maps about 39, so the
// bound catches either creeping back. Excluded under the race
// detector, whose instrumentation allocates.
func TestFixRequestAllocs(t *testing.T) {
	const tuples, perTuple = 256, 2
	l := newFixLoad(t, 500, 1024)
	body := l.body(0, tuples)
	allocs := testing.AllocsPerRun(20, func() { l.post(t, body) })
	t.Logf("%.0f allocs per %d-tuple /fix, %.1f per tuple", allocs, tuples, allocs/tuples)
	if allocs > perTuple*tuples {
		t.Fatalf("a %d-tuple /fix allocates %.0f times, more than %d per tuple", tuples, allocs, perTuple)
	}
}
