package core

import (
	"strings"
	"testing"

	"cerfix/internal/dataset"
	"cerfix/internal/master"
	"cerfix/internal/rule"
	"cerfix/internal/value"
)

// The paper's demo configuration is consistent: "CerFix automatically
// tests whether the specified eRs make sense w.r.t. master data" and
// the nine rules pass (E1).
func TestDemoRulesConsistent(t *testing.T) {
	e := demoEngine(t)
	rep := e.CheckConsistency()
	if !rep.Consistent() {
		for _, is := range rep.Issues {
			t.Logf("issue: %s", is)
		}
		t.Fatal("demo rules reported inconsistent")
	}
	if len(rep.Errors()) != 0 {
		t.Fatalf("errors: %v", rep.Errors())
	}
	if rep.ProbesRun == 0 {
		t.Fatal("no Church-Rosser probes ran")
	}
	// The demo set does carry cross-entity warnings (e.g. φ2 vs φ6 on
	// str: zip of one person + home phone of another): they are
	// reported but harmless.
	if len(rep.Warnings()) == 0 {
		t.Fatal("expected cross-entity warnings for the demo rules")
	}
}

// Analysis (1): one key mapping to two source values.
func TestMasterAmbiguityDetected(t *testing.T) {
	st := master.New(dataset.PersonSchema())
	rows := dataset.DemoMasterRows()
	for _, row := range rows {
		if _, err := st.InsertValues(row...); err != nil {
			t.Fatal(err)
		}
	}
	dup := append(value.List(nil), rows[0]...)
	dup[2] = "999" // same zip, different AC
	if _, err := st.InsertValues(dup...); err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(dataset.CustSchema(), dataset.DemoRules(), st)
	if err != nil {
		t.Fatal(err)
	}
	rep := e.CheckConsistency()
	found := false
	for _, is := range rep.Issues {
		if is.Kind == IssueMasterAmbiguity && is.RuleA == "phi1" {
			found = true
			if is.MasterA == 0 || is.MasterB == 0 {
				t.Error("witness master IDs missing")
			}
			if !strings.Contains(is.String(), "master-ambiguity") {
				t.Errorf("String = %q", is.String())
			}
		}
	}
	if !found {
		t.Fatalf("ambiguity not detected: %v", rep.Issues)
	}
}

// Analysis (2): two rules with overlapping targets and jointly
// satisfiable patterns that derive different values.
func TestPairwiseConflictDetected(t *testing.T) {
	st := master.New(dataset.PersonSchema())
	for _, row := range dataset.DemoMasterRows() {
		if _, err := st.InsertValues(row...); err != nil {
			t.Fatal(err)
		}
	}
	// ra copies city from the zip match; rb copies city from the AC
	// match. An input with Robert Brady's zip and Mark Smith's AC gets
	// Edi from ra but Ldn from rb.
	rs := rule.MustSet(
		mustParse(t, `ra: match zip~zip set city := city`),
		mustParse(t, `rb: match AC~AC set city := city`),
	)
	e, err := NewEngine(dataset.CustSchema(), rs, st)
	if err != nil {
		t.Fatal(err)
	}
	rep := e.CheckConsistency()
	found := false
	for _, is := range rep.Issues {
		if is.Kind == IssueRuleConflict && is.Attr == "city" {
			found = true
			if (is.RuleA != "ra" || is.RuleB != "rb") && (is.RuleA != "rb" || is.RuleB != "ra") {
				t.Errorf("wrong rule pair: %+v", is)
			}
			// Cross-entity witness (Brady's zip + Smith's AC): a
			// warning, not an error — the rules are fine per entity.
			if is.Severity != SeverityWarning {
				t.Errorf("severity = %v, want warning: %s", is.Severity, is)
			}
		}
	}
	if !found {
		t.Fatalf("pairwise conflict not detected: %v", rep.Issues)
	}
	if !rep.Consistent() {
		t.Fatal("cross-entity warnings must not fail consistency")
	}
	if len(rep.Warnings()) == 0 {
		t.Fatal("Warnings() empty")
	}
}

// A genuine rule error: two rules derive the same attribute from
// different master attributes of the *same* entity (copying street into
// city). This is error severity and fails consistency.
func TestSameEntityConflictIsError(t *testing.T) {
	st := master.New(dataset.PersonSchema())
	for _, row := range dataset.DemoMasterRows() {
		if _, err := st.InsertValues(row...); err != nil {
			t.Fatal(err)
		}
	}
	rs := rule.MustSet(
		mustParse(t, `ra: match zip~zip set city := city`),
		mustParse(t, `rb: match zip~zip set city := str`), // bug: street into city
	)
	e, err := NewEngine(dataset.CustSchema(), rs, st)
	if err != nil {
		t.Fatal(err)
	}
	rep := e.CheckConsistency()
	if rep.Consistent() {
		t.Fatal("same-entity conflict not flagged as error")
	}
	errs := rep.Errors()
	foundPairwise := false
	for _, is := range errs {
		if is.Kind == IssueRuleConflict && is.MasterA == is.MasterB {
			foundPairwise = true
		}
	}
	if !foundPairwise {
		t.Fatalf("expected same-tuple pairwise error, got %v", rep.Issues)
	}
}

// Disjoint patterns shield overlapping targets: no conflict possible.
func TestDisjointPatternsNoConflict(t *testing.T) {
	st := master.New(dataset.PersonSchema())
	for _, row := range dataset.DemoMasterRows() {
		if _, err := st.InsertValues(row...); err != nil {
			t.Fatal(err)
		}
	}
	rs := rule.MustSet(
		mustParse(t, `ra: match zip~zip set city := city when type = "1"`),
		mustParse(t, `rb: match AC~AC set city := city when type = "2"`),
	)
	e, err := NewEngine(dataset.CustSchema(), rs, st)
	if err != nil {
		t.Fatal(err)
	}
	rep := e.CheckConsistency()
	for _, is := range rep.Issues {
		if is.Kind == IssueRuleConflict {
			t.Fatalf("false conflict despite disjoint patterns: %v", is)
		}
	}
}

// Bindings that force pattern violation shield the pair too: if rb's
// pattern requires AC = "0800" but matching any master tuple binds AC
// to a non-0800 value, no conflict input exists.
func TestBoundPatternBlocksConflict(t *testing.T) {
	st := master.New(dataset.PersonSchema())
	for _, row := range dataset.DemoMasterRows() {
		if _, err := st.InsertValues(row...); err != nil {
			t.Fatal(err)
		}
	}
	rs := rule.MustSet(
		mustParse(t, `ra: match zip~zip set city := city`),
		mustParse(t, `rb: match AC~AC set city := city when AC = "0800"`),
	)
	e, err := NewEngine(dataset.CustSchema(), rs, st)
	if err != nil {
		t.Fatal(err)
	}
	rep := e.CheckConsistency()
	for _, is := range rep.Issues {
		if is.Kind == IssueRuleConflict {
			t.Fatalf("conflict reported though no master tuple has AC=0800: %v", is)
		}
	}
}

// Single-rule sets skip order probing but still report.
func TestSingleRuleOrderProbeSkipped(t *testing.T) {
	st := master.New(dataset.PersonSchema())
	for _, row := range dataset.DemoMasterRows() {
		if _, err := st.InsertValues(row...); err != nil {
			t.Fatal(err)
		}
	}
	rs := rule.MustSet(mustParse(t, `ra: match zip~zip set city := city`))
	e, err := NewEngine(dataset.CustSchema(), rs, st)
	if err != nil {
		t.Fatal(err)
	}
	rep := e.CheckConsistency()
	if rep.ProbesRun != 0 {
		t.Fatalf("probes ran for single rule: %d", rep.ProbesRun)
	}
	if !rep.Consistent() {
		t.Fatalf("single clean rule inconsistent: %v", rep.Issues)
	}
}

func TestIssueKindStrings(t *testing.T) {
	if IssueMasterAmbiguity.String() != "master-ambiguity" ||
		IssueRuleConflict.String() != "rule-conflict" ||
		IssueOrderDependence.String() != "order-dependence" {
		t.Fatal("kind names wrong")
	}
}
