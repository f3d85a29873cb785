package cerfix

import (
	"strings"
	"testing"

	"cerfix/internal/core"
	"cerfix/internal/dataset"
)

func demoSystem(t testing.TB) *System {
	t.Helper()
	sys, err := New(dataset.CustSchema(), dataset.PersonSchema(), dataset.DemoRulesDSL)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range dataset.DemoMasterRows() {
		if err := sys.AddMasterRow(row.Strings()...); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

func TestNewValidatesDSL(t *testing.T) {
	if _, err := New(dataset.CustSchema(), dataset.PersonSchema(), "broken"); err == nil {
		t.Fatal("broken DSL accepted")
	}
	if _, err := New(dataset.CustSchema(), dataset.PersonSchema(),
		"x: match zip~zip set bogus := AC"); err == nil {
		t.Fatal("rule referencing unknown attribute accepted")
	}
}

func TestSchemaAccessors(t *testing.T) {
	sys := demoSystem(t)
	if sys.InputSchema().Name() != "CUST" || sys.MasterSchema().Name() != "PERSON" {
		t.Fatal("schema accessors wrong")
	}
	if sys.Master().Len() != 3 {
		t.Fatalf("master rows = %d", sys.Master().Len())
	}
}

func TestStringAttrsAndNewSchema(t *testing.T) {
	attrs := StringAttrs("a", "b")
	sch, err := NewSchema("R", attrs...)
	if err != nil {
		t.Fatal(err)
	}
	if sch.Len() != 2 || sch.Attr(0).Name != "a" {
		t.Fatal("schema built wrong")
	}
}

func TestEndToEndSessionFlow(t *testing.T) {
	sys := demoSystem(t)
	// Consistency (E1).
	rep := sys.CheckConsistency()
	if !rep.Consistent() {
		t.Fatalf("demo inconsistent: %v", rep.Errors())
	}
	// Regions.
	regions := sys.Regions(3)
	if len(regions) == 0 || regions[0].Size() != 4 {
		t.Fatalf("regions = %v", regions)
	}
	// Session (Fig. 3 walkthrough through the facade).
	sess, err := sys.NewSession(dataset.DemoInputFig3().Map())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Validate(map[string]string{
		"AC": "201", "phn": "075568485", "type": "2", "item": "DVD",
	}); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(sess.Suggestion(), ","); got != "zip" {
		t.Fatalf("suggestion = %q", got)
	}
	if _, err := sess.ValidateSuggested(); err != nil {
		t.Fatal(err)
	}
	if !sess.Certain() {
		t.Fatal("session not certain")
	}
	if !sess.Tuple.Equal(dataset.DemoGroundTruthFig3()) {
		t.Fatalf("tuple = %v", sess.Tuple)
	}
	// Audit.
	if sys.Audit().Len() == 0 {
		t.Fatal("audit log empty")
	}
	if _, ok := sys.Audit().CellProvenance(sess.ID, "FN"); !ok {
		t.Fatal("FN provenance missing")
	}
}

func TestFixNonInteractive(t *testing.T) {
	sys := demoSystem(t)
	fixed, res := sys.Fix(dataset.DemoInputExample1(), []string{"zip"})
	if fixed.Get("AC") != "131" {
		t.Fatalf("AC = %q", fixed.Get("AC"))
	}
	if len(res.Conflicts) != 0 {
		t.Fatalf("conflicts: %v", res.Conflicts)
	}
	// Original untouched.
	if dataset.DemoInputExample1().Get("AC") != "020" {
		t.Fatal("input mutated")
	}
}

func TestRuleManagement(t *testing.T) {
	sys := demoSystem(t)
	if !strings.Contains(sys.Rules(), "phi1:") {
		t.Fatalf("Rules = %q", sys.Rules())
	}
	if err := sys.AddRule(`extra: match zip~zip set FN := FN`); err != nil {
		t.Fatal(err)
	}
	if sys.RuleSet().Len() != 10 {
		t.Fatalf("rules = %d", sys.RuleSet().Len())
	}
	// Invalid rule rejected without corrupting the set.
	if err := sys.AddRule(`bad: match zip~zip set bogus := FN`); err == nil {
		t.Fatal("invalid rule accepted")
	}
	if err := sys.AddRule(`alsobad ~ nonsense`); err == nil {
		t.Fatal("unparsable rule accepted")
	}
	if sys.RuleSet().Len() != 10 {
		t.Fatalf("rules after failed add = %d", sys.RuleSet().Len())
	}
	if !sys.RemoveRule("extra") || sys.RemoveRule("extra") {
		t.Fatal("RemoveRule semantics wrong")
	}
	if sys.RuleSet().Len() != 9 {
		t.Fatalf("rules after remove = %d", sys.RuleSet().Len())
	}
}

// TestRuleIndexesResolveEveryRule: every rule of the shipped rule sets
// resolves a registered rule index on the live store NewEngine
// prepared, on its snapshot, and after rules are added (one new Bm on
// a registered Xm, one new Xm) and removed. So the compiled chase
// never takes Store.UniqueRHS's fallback on the rule-index path; only
// ModeScan reaches it.
func TestRuleIndexesResolveEveryRule(t *testing.T) {
	for _, tc := range []struct {
		name          string
		input, master *Schema
		rules         *RuleSet
		extra         []string
	}{
		{"demo", dataset.CustSchema(), dataset.PersonSchema(), dataset.DemoRules(),
			[]string{`x1: match zip~zip set FN := FN`, `x2: match LN~LN set FN := FN`}},
		{"dblp", dataset.DblpSchema(), dataset.DblpSchema(), dataset.DblpRules(),
			[]string{`x1: match key~key set vfull := vfull`, `x2: match authors~authors set venue := venue`}},
		{"hosp", dataset.HospSchema(), dataset.HospSchema(), dataset.HospRules(),
			[]string{`x1: match zip~zip set county := county`, `x2: match hospital~hospital set phone := phone`}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := NewWithRules(tc.input, tc.master, tc.rules)
			if err != nil {
				t.Fatal(err)
			}
			check := func(stage string, want int) {
				t.Helper()
				for _, eng := range []*core.Engine{sys.Engine(), sys.SnapshotEngine()} {
					rules := eng.Rules().Rules()
					if len(rules) != want {
						t.Fatalf("%s: %d rules, want %d", stage, len(rules), want)
					}
					for _, r := range rules {
						h := eng.Master().Handle(r.MatchMasterAttrs(), r.SetMasterAttrs())
						if _, _, _, ok := h.Lookup(nil); !ok {
							t.Errorf("%s (frozen %v): rule %s has no registered rule index", stage, eng.Master().Frozen(), r.ID)
						}
					}
				}
			}
			n := tc.rules.Len()
			check("NewEngine", n)
			for _, line := range tc.extra {
				if err := sys.AddRule(line); err != nil {
					t.Fatal(err)
				}
			}
			check("after AddRule", n+len(tc.extra))
			if !sys.RemoveRule("x1") {
				t.Fatal("RemoveRule(x1) found nothing")
			}
			check("after RemoveRule", n+len(tc.extra)-1)
		})
	}
}

func TestRuleChangeInvalidatesMonitor(t *testing.T) {
	sys := demoSystem(t)
	// Force the monitor to exist, then change rules: a new session
	// must reflect the updated rule set.
	if _, err := sys.NewSession(dataset.DemoInputFig3().Map()); err != nil {
		t.Fatal(err)
	}
	// With the zip rules gone, zip can no longer unlock AC/str/city.
	for _, id := range []string{"phi1", "phi2", "phi3"} {
		if !sys.RemoveRule(id) {
			t.Fatalf("remove %s failed", id)
		}
	}
	fixed, _ := sys.Fix(dataset.DemoInputExample1(), []string{"zip"})
	if fixed.Get("AC") != "020" {
		t.Fatal("removed rule still fired")
	}
}

func TestLoadMasterCSV(t *testing.T) {
	sys, err := New(dataset.CustSchema(), dataset.PersonSchema(), dataset.DemoRulesDSL)
	if err != nil {
		t.Fatal(err)
	}
	csv := "FN,LN,AC,Hphn,Mphn,str,city,zip,DOB,gender\n" +
		"Robert,Brady,131,6884563,079172485,501 Elm St,Edi,EH8 4AH,11/11/55,M\n"
	if err := sys.LoadMasterCSV(strings.NewReader(csv)); err != nil {
		t.Fatal(err)
	}
	if sys.Master().Len() != 1 {
		t.Fatalf("master = %d", sys.Master().Len())
	}
	fixed, _ := sys.Fix(dataset.DemoInputExample1(), []string{"zip"})
	if fixed.Get("AC") != "131" {
		t.Fatal("fix after CSV load failed")
	}
	if err := sys.LoadMasterCSV(strings.NewReader("bad header\nrow\n")); err == nil {
		t.Fatal("bad CSV accepted")
	}
}

func TestSetRegionOptions(t *testing.T) {
	sys := demoSystem(t)
	sys.SetRegionOptions(&RegionOptions{Greedy: true, K: 2})
	regions := sys.Regions(2)
	if len(regions) == 0 {
		t.Fatal("no greedy regions")
	}
	// Sessions still work with greedy regions.
	sess, err := sys.NewSession(dataset.DemoGroundTruthFig3().Map())
	if err != nil {
		t.Fatal(err)
	}
	if len(sess.Suggestion()) == 0 {
		t.Fatal("no suggestion")
	}
}

func TestParseRulesHelper(t *testing.T) {
	rs, err := ParseRules(dataset.DemoRulesDSL)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 9 {
		t.Fatalf("rules = %d", rs.Len())
	}
	if _, err := ParseRules("nope"); err == nil {
		t.Fatal("bad DSL accepted")
	}
}

// Adding master rows invalidates the cached monitor: new entities
// become coverable without rebuilding the system.
func TestMasterGrowthRefreshesRegions(t *testing.T) {
	sys := demoSystem(t)
	// Force monitor construction.
	if _, err := sys.NewSession(dataset.DemoInputFig3().Map()); err != nil {
		t.Fatal(err)
	}
	// A new entity unknown to the current tableaux.
	if err := sys.AddMasterRow(
		"Zoe", "New", "117", "5550001", "075550002",
		"1 New Rd", "Brs", "BS1 1AA", "01/01/90", "F"); err != nil {
		t.Fatal(err)
	}
	// A clean tuple of the new entity must now be covered by the
	// refreshed smallest region.
	tuple := map[string]string{
		"FN": "Zoe", "LN": "New", "AC": "117", "phn": "075550002", "type": "2",
		"str": "1 New Rd", "city": "Brs", "zip": "BS1 1AA", "item": "CD",
	}
	sess, err := sys.NewSession(tuple)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ValidateSuggested(); err != nil {
		t.Fatal(err)
	}
	if !sess.Certain() {
		t.Fatalf("new entity not fixable after master growth: remaining %v", sess.Remaining())
	}
}

// Session IDs never repeat within a system: each write drops the
// monitor, but the next one keeps counting, so a new session neither
// reuses an older session's ID nor starts with its audit history.
func TestSessionIDsSurviveWrites(t *testing.T) {
	sys := demoSystem(t)
	writes := []struct {
		name  string
		write func() error
	}{
		{"AddMasterRow", func() error {
			return sys.AddMasterRow("Zoe", "New", "117", "5550001", "075550002",
				"1 New Rd", "Brs", "BS1 1AA", "01/01/90", "F")
		}},
		{"LoadMasterCSV", func() error {
			return sys.LoadMasterCSV(strings.NewReader("FN,LN,AC,Hphn,Mphn,str,city,zip,DOB,gender\n" +
				"Ann,Old,131,5550003,075550004,2 Old Rd,Edi,EH1 1AA,02/02/80,F\n"))
		}},
		{"AddRule", func() error { return sys.AddRule(`phi10: match zip~zip set city := city`) }},
		{"SetRegionOptions", func() error { sys.SetRegionOptions(&RegionOptions{K: 1}); return nil }},
	}
	first, err := sys.NewSession(dataset.DemoInputFig3().Map())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Validate(map[string]string{"zip": "NW1 6XE"}); err != nil {
		t.Fatal(err)
	}
	seen := map[int64]string{first.ID: "first"}
	for _, w := range writes {
		if err := w.write(); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		sess, err := sys.NewSession(dataset.DemoInputFig3().Map())
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[sess.ID]; dup {
			t.Fatalf("after %s: session ID %d repeats the %s session's", w.name, sess.ID, prev)
		}
		seen[sess.ID] = "after " + w.name
		if h := sys.Audit().TupleHistory(sess.ID); len(h) != 0 {
			t.Fatalf("after %s: new session %d already has %d audit records", w.name, sess.ID, len(h))
		}
	}
}

// The audit log survives a save/load cycle of the *master data* only —
// the log itself is runtime state and stays with the in-memory system.
func TestAuditCSVThroughFacade(t *testing.T) {
	sys := demoSystem(t)
	sess, err := sys.NewSession(dataset.DemoInputFig3().Map())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Validate(map[string]string{"zip": "NW1 6XE"}); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := sys.Audit().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "phi1") {
		t.Fatalf("audit export missing rule provenance:\n%s", buf.String())
	}
}

func TestDiscoverRulesFacade(t *testing.T) {
	// Same-schema system (HOSP-style): discovery works.
	sch, err := NewSchema("R", StringAttrs("k", "a", "b")...)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(sch, sch, "seed: match k~k set a := a")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range [][]string{
		{"K1", "A1", "B1"}, {"K2", "A2", "B2"}, {"K3", "A3", "B3"},
	} {
		if err := sys.AddMasterRow(row...); err != nil {
			t.Fatal(err)
		}
	}
	rules, err := sys.DiscoverRules(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) == 0 {
		t.Fatal("nothing discovered")
	}
	// k -> a and k -> b must be among them; installing one works.
	installed := false
	for _, r := range rules {
		if len(r.Match) == 1 && r.Match[0].Input == "k" {
			r2 := r.Clone()
			r2.ID = "disc_" + r.ID
			if err := sys.AddRule(r2.String()); err != nil {
				t.Fatalf("installing %s: %v", r2, err)
			}
			installed = true
			break
		}
	}
	if !installed {
		t.Fatalf("no key-based rule discovered: %v", rules)
	}
	// Mismatched schemas are rejected.
	sysDemo := demoSystem(t)
	if _, err := sysDemo.DiscoverRules(1); err == nil {
		t.Fatal("discovery on mismatched schemas accepted")
	}
}
