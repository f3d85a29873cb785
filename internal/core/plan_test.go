package core

import (
	"strings"
	"testing"

	"cerfix/internal/dataset"
	"cerfix/internal/schema"
)

func TestPlanMobileRegion(t *testing.T) {
	sch := dataset.CustSchema()
	rules := dataset.DemoRules().Rules()
	seed := schema.SetOfNames(sch, "zip", "phn", "type", "item")
	steps, complete := NewDerivation(sch, rules, typeEq(sch, "2")).Plan(seed, schema.FullSet(sch))
	if !complete {
		t.Fatal("mobile region plan incomplete")
	}
	// φ1–φ3 fire off zip; φ4/φ5 off phn+type. Order follows rule IDs.
	var ids []string
	gives := schema.EmptySet
	for _, s := range steps {
		ids = append(ids, s.RuleID)
		gives = gives.Union(schema.SetOfNames(sch, s.Gives...))
	}
	want := schema.SetOfNames(sch, "AC", "str", "city", "FN", "LN")
	if gives != want {
		t.Fatalf("plan gives %v, want %v", gives.Format(sch), want.Format(sch))
	}
	if ids[0] != "phi1" {
		t.Fatalf("plan order = %v (chase order starts at phi1)", ids)
	}
	// Every step must be enabled by what precedes it.
	cur := seed
	for _, s := range steps {
		needs := schema.SetOfNames(sch, s.Needs...)
		if !cur.ContainsAll(needs) {
			t.Fatalf("step %v fired before its premise was available", s)
		}
		cur = cur.Union(schema.SetOfNames(sch, s.Gives...))
	}
}

func TestPlanMultiHop(t *testing.T) {
	sch := dataset.CustSchema()
	rules := dataset.DemoRules().Rules()
	// Seed {zip, type} in the home cell: φ1 gives AC, which then (with
	// phn missing) cannot unlock φ6 — plan must stop incomplete.
	seed := schema.SetOfNames(sch, "zip", "type")
	steps, complete := NewDerivation(sch, rules, typeEq(sch, "1")).Plan(seed, schema.FullSet(sch))
	if complete {
		t.Fatal("plan cannot be complete without phn/item")
	}
	// But φ9 must appear *after* φ1 supplies AC (multi-hop dependency).
	seenPhi1 := false
	for _, s := range steps {
		if s.RuleID == "phi1" {
			seenPhi1 = true
		}
		if s.RuleID == "phi9" && !seenPhi1 {
			t.Fatal("phi9 planned before phi1 supplied AC")
		}
	}
}

func TestPlanStepString(t *testing.T) {
	s := PlanStep{RuleID: "phi1", Needs: []string{"zip"}, Gives: []string{"AC"}}
	if s.String() != "phi1: {zip} => {AC}" {
		t.Fatalf("String = %q", s.String())
	}
}

func TestExplainSuggestion(t *testing.T) {
	sch := dataset.CustSchema()
	rules := dataset.DemoRules().Rules()
	validated := schema.SetOfNames(sch, "AC", "phn", "type", "item", "FN", "LN", "city")
	suggestion := schema.SetOfNames(sch, "zip")
	out := NewDerivation(sch, rules, typeEq(sch, "2")).ExplainSuggestion(validated, suggestion)
	if !strings.Contains(out, "validate {zip}") {
		t.Fatalf("explanation = %q", out)
	}
	if !strings.Contains(out, "phi2") {
		t.Fatalf("explanation missing phi2 (str fix): %q", out)
	}
	if strings.Contains(out, "does not complete") {
		t.Fatalf("explanation claims incomplete: %q", out)
	}
	// An insufficient suggestion is flagged.
	bad := NewDerivation(sch, rules, typeEq(sch, "2")).ExplainSuggestion(schema.EmptySet, schema.SetOfNames(sch, "zip"))
	if !strings.Contains(bad, "does not complete") {
		t.Fatalf("incomplete plan not flagged: %q", bad)
	}
}
