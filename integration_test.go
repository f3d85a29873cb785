package cerfix

// Cross-family integration tests: the full pipeline — generate master
// data, inject noise, open sessions, drive them with the oracle,
// verify certain fixes and audit bookkeeping — on each of the three
// workload families (customers, HOSP, DBLP). These are the end-to-end
// guarantees everything else composes into.

import (
	"testing"

	"cerfix/internal/core"
	"cerfix/internal/dataset"
	"cerfix/internal/master"
	"cerfix/internal/metrics"
	"cerfix/internal/monitor"
	"cerfix/internal/oracle"
	"cerfix/internal/rule"
	"cerfix/internal/schema"
)

// familyCase bundles one workload family's configuration.
type familyCase struct {
	name   string
	schema *schema.Schema
	rules  *rule.Set
	load   func(t *testing.T) (*master.Store, []*schema.Tuple, []*schema.Tuple)
}

func familyCases(t *testing.T) []familyCase {
	t.Helper()
	n := 60
	if testing.Short() {
		n = 15
	}
	return []familyCase{
		{
			name:   "customers",
			schema: dataset.CustSchema(),
			rules:  dataset.DemoRules(),
			load: func(t *testing.T) (*master.Store, []*schema.Tuple, []*schema.Tuple) {
				g := dataset.NewCustomerGen(201)
				w, err := g.GenerateWorkload(40, n, 0.35, nil)
				if err != nil {
					t.Fatal(err)
				}
				return w.Store, w.Dirty, w.Truth
			},
		},
		{
			name:   "hosp",
			schema: dataset.HospSchema(),
			rules:  dataset.HospRules(),
			load: func(t *testing.T) (*master.Store, []*schema.Tuple, []*schema.Tuple) {
				g := dataset.NewHospGen(202)
				w, err := g.GenerateWorkload(30, n, 0.35)
				if err != nil {
					t.Fatal(err)
				}
				return w.Store, w.Dirty, w.Truth
			},
		},
		{
			name:   "dblp",
			schema: dataset.DblpSchema(),
			rules:  dataset.DblpRules(),
			load: func(t *testing.T) (*master.Store, []*schema.Tuple, []*schema.Tuple) {
				g := dataset.NewDblpGen(203)
				w, err := g.GenerateWorkload(50, n, 0.35)
				if err != nil {
					t.Fatal(err)
				}
				return w.Store, w.Dirty, w.Truth
			},
		},
	}
}

// Every family: rules consistent, regions exist, oracle-driven
// sessions reach the exact ground truth with precision/recall 1.0, and
// the audit log accounts for every cell.
func TestEndToEndAllFamilies(t *testing.T) {
	for _, fc := range familyCases(t) {
		fc := fc
		t.Run(fc.name, func(t *testing.T) {
			store, dirty, truth := fc.load(t)
			eng, err := core.NewEngine(fc.schema, fc.rules, store)
			if err != nil {
				t.Fatal(err)
			}
			// Rule-set health.
			rep := eng.CheckConsistency()
			if !rep.Consistent() {
				t.Fatalf("rules inconsistent: %v", rep.Errors())
			}
			mon := monitor.New(eng, nil)
			if len(mon.Regions()) == 0 {
				t.Fatal("no certain regions")
			}
			var q metrics.RepairQuality
			attrs := fc.schema.Len()
			for i := range dirty {
				sess, err := mon.NewSession(dirty[i])
				if err != nil {
					t.Fatal(err)
				}
				u := oracle.NewUser(truth[i], oracle.FollowSuggestions)
				if _, err := u.RunSession(sess); err != nil {
					t.Fatalf("tuple %d: %v", i, err)
				}
				if !sess.Certain() {
					t.Fatalf("tuple %d not certain: %v", i, sess.Conflicts)
				}
				if !sess.Tuple.Equal(truth[i]) {
					t.Fatalf("tuple %d: %v != %v", i, sess.Tuple, truth[i])
				}
				if err := q.Add(dirty[i], sess.Tuple, truth[i]); err != nil {
					t.Fatal(err)
				}
				// Audit accounting: every attribute of the tuple has a
				// record (user assertion or rule event).
				seen := schema.EmptySet
				for _, rec := range mon.Log().TupleHistory(sess.ID) {
					if idx, ok := fc.schema.Index(rec.Attr); ok {
						seen = seen.With(idx)
					}
				}
				if seen.Count() != attrs {
					t.Fatalf("tuple %d: audit covers %d/%d attributes",
						i, seen.Count(), attrs)
				}
			}
			// End-to-end quality: with correct assertions, everything
			// is repaired and nothing breaks.
			if q.Recall() != 1.0 || q.ResidualErrors != 0 || q.BrokenCells != 0 {
				t.Fatalf("quality = %s", q.String())
			}
		})
	}
}

// The facade handles all three families through the same API surface.
func TestFacadeAllFamilies(t *testing.T) {
	for _, fc := range familyCases(t) {
		fc := fc
		t.Run(fc.name, func(t *testing.T) {
			store, dirty, truth := fc.load(t)
			sys, err := NewWithRules(fc.schema, store.Schema(), fc.rules)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range store.All() {
				if err := sys.AddMasterRow(s.Vals.Strings()...); err != nil {
					t.Fatal(err)
				}
			}
			// A single representative session through the facade.
			sess, err := sys.NewSessionTuple(dirty[0])
			if err != nil {
				t.Fatal(err)
			}
			for rounds := 0; !sess.Done() && rounds < fc.schema.Len()+2; rounds++ {
				ans := make(map[string]string)
				for _, a := range sess.Suggestion() {
					ans[a] = string(truth[0].Get(a))
				}
				if _, err := sess.Validate(ans); err != nil {
					t.Fatal(err)
				}
			}
			if !sess.Certain() || !sess.Tuple.Equal(truth[0]) {
				t.Fatalf("facade session failed: %v", sess.Tuple)
			}
		})
	}
}
