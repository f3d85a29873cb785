package core

import (
	"testing"

	"cerfix/internal/dataset"
	"cerfix/internal/pattern"
	"cerfix/internal/rule"
	"cerfix/internal/schema"
	"cerfix/internal/value"
)

func demoRuleList() []*rule.Rule { return dataset.DemoRules().Rules() }

// typeEq returns a filter admitting rules whose pattern is empty or
// consistent with type = v (the region finder's cell filters).
func typeEq(sch *schema.Schema, v value.V) RuleFilter {
	cell := pattern.NewPattern(pattern.Eq("type", v))
	return func(r *rule.Rule) bool {
		if r.When.IsEmpty() {
			return true
		}
		return pattern.JointlySatisfiable(r.When, cell, sch)
	}
}

func TestClosureZipUnlocksAddress(t *testing.T) {
	sch := dataset.CustSchema()
	rules := demoRuleList()
	seed := schema.SetOfNames(sch, "zip")
	got := NewDerivation(sch, rules, AllRules).Closure(seed)
	// zip -> AC (phi1), str (phi2), city (phi3); then AC -> city (phi9,
	// pattern attr AC already in set). FN/LN need phn+type; item dead.
	want := schema.SetOfNames(sch, "zip", "AC", "str", "city")
	if got != want {
		t.Fatalf("closure = %v, want %v", got.Format(sch), want.Format(sch))
	}
}

func TestClosureMobileCell(t *testing.T) {
	sch := dataset.CustSchema()
	rules := demoRuleList()
	// In the type=2 cell with {zip, phn, type} validated, everything
	// except item is derivable.
	seed := schema.SetOfNames(sch, "zip", "phn", "type")
	got := NewDerivation(sch, rules, typeEq(sch, "2")).Closure(seed)
	want := schema.FullSet(sch).Without(sch.MustIndex("item"))
	if got != want {
		t.Fatalf("closure = %v, want %v", got.Format(sch), want.Format(sch))
	}
}

func TestClosureHomeCellNeedsNames(t *testing.T) {
	sch := dataset.CustSchema()
	rules := demoRuleList()
	// type=1: phi4/phi5 are inactive, so FN/LN are not derivable even
	// from a large seed.
	seed := schema.SetOfNames(sch, "AC", "phn", "type", "zip")
	got := NewDerivation(sch, rules, typeEq(sch, "1")).Closure(seed)
	if got.Has(sch.MustIndex("FN")) || got.Has(sch.MustIndex("LN")) {
		t.Fatalf("FN/LN derivable in home cell: %v", got.Format(sch))
	}
	for _, a := range []string{"str", "city", "zip"} {
		if !got.Has(sch.MustIndex(a)) {
			t.Fatalf("%s not derivable in home cell: %v", a, got.Format(sch))
		}
	}
}

func TestClosureMonotoneAndIdempotent(t *testing.T) {
	sch := dataset.CustSchema()
	rules := demoRuleList()
	seeds := []schema.AttrSet{
		schema.EmptySet,
		schema.SetOfNames(sch, "zip"),
		schema.SetOfNames(sch, "phn", "type"),
		schema.FullSet(sch),
	}
	for _, s := range seeds {
		c := NewDerivation(sch, rules, AllRules).Closure(s)
		if !c.ContainsAll(s) {
			t.Fatalf("closure not extensive for %v", s.Format(sch))
		}
		if NewDerivation(sch, rules, AllRules).Closure(c) != c {
			t.Fatalf("closure not idempotent for %v", s.Format(sch))
		}
	}
	// Monotone: seed1 ⊆ seed2 ⇒ closure1 ⊆ closure2.
	c1 := NewDerivation(sch, rules, AllRules).Closure(seeds[1])
	c2 := NewDerivation(sch, rules, AllRules).Closure(seeds[1].Union(seeds[2]))
	if !c2.ContainsAll(c1) {
		t.Fatal("closure not monotone")
	}
}

func TestDeadAttrs(t *testing.T) {
	sch := dataset.CustSchema()
	dead := DeadAttrs(sch, demoRuleList())
	// item and phn and type are never rule targets (phn/type are only
	// premises in the demo rules).
	want := schema.SetOfNames(sch, "item", "phn", "type")
	if dead != want {
		t.Fatalf("dead = %v, want %v", dead.Format(sch), want.Format(sch))
	}
}

func TestMinimalExtensionAlreadyCovered(t *testing.T) {
	sch := dataset.CustSchema()
	rules := demoRuleList()
	seed := schema.FullSet(sch)
	got := NewDerivation(sch, rules, AllRules).MinimalExtension(seed, schema.FullSet(sch))
	if !got.IsEmpty() {
		t.Fatalf("extension = %v, want empty", got.Format(sch))
	}
}

// After Fig. 3 round 1 ({AC, phn, type, item} validated and FN/LN/city
// derived), the minimal new suggestion is exactly {zip} — what the
// paper shows CerFix suggesting in Fig. 3(b).
func TestMinimalExtensionFig3SuggestsZip(t *testing.T) {
	sch := dataset.CustSchema()
	rules := demoRuleList()
	seed := schema.SetOfNames(sch, "AC", "phn", "type", "item", "FN", "LN", "city")
	delta := NewDerivation(sch, rules, typeEq(sch, "2")).MinimalExtension(seed, schema.FullSet(sch))
	want := schema.SetOfNames(sch, "zip")
	if delta != want {
		t.Fatalf("suggestion = %v, want {zip}", delta.Format(sch))
	}
}

func TestMinimalExtensionFromScratchMobile(t *testing.T) {
	sch := dataset.CustSchema()
	rules := demoRuleList()
	delta := NewDerivation(sch, rules, typeEq(sch, "2")).MinimalExtension(schema.EmptySet, schema.FullSet(sch))
	// Minimum covering seed in the mobile cell: {zip, phn, type, item}
	// (4 attributes). Any 3-attribute seed misses FN/LN or item.
	if delta.Count() != 4 {
		t.Fatalf("suggestion size = %d (%v), want 4", delta.Count(), delta.Format(sch))
	}
	cl := NewDerivation(sch, rules, typeEq(sch, "2")).Closure(delta)
	if cl != schema.FullSet(sch) {
		t.Fatalf("suggested set does not cover: %v", cl.Format(sch))
	}
}

func TestGreedyExtensionCovers(t *testing.T) {
	sch := dataset.CustSchema()
	rules := demoRuleList()
	for _, cellType := range []value.V{"1", "2"} {
		admit := typeEq(sch, cellType)
		delta := NewDerivation(sch, rules, admit).GreedyExtension(schema.EmptySet, schema.FullSet(sch))
		cl := NewDerivation(sch, rules, admit).Closure(delta)
		if cl != schema.FullSet(sch) {
			t.Fatalf("cell type=%s: greedy set %v does not cover (%v)",
				cellType, delta.Format(sch), cl.Format(sch))
		}
		exact := NewDerivation(sch, rules, admit).MinimalExtension(schema.EmptySet, schema.FullSet(sch))
		if delta.Count() < exact.Count() {
			t.Fatalf("greedy (%d) beat exact (%d)?", delta.Count(), exact.Count())
		}
	}
}

func TestGreedyExtensionUnreachableGoal(t *testing.T) {
	sch := dataset.CustSchema()
	// No rules at all: greedy must fall back to validating the goal
	// attributes directly.
	delta := NewDerivation(sch, nil, AllRules).GreedyExtension(schema.EmptySet, schema.SetOfNames(sch, "FN", "zip"))
	if delta != schema.SetOfNames(sch, "FN", "zip") {
		t.Fatalf("fallback = %v", delta.Format(sch))
	}
}

func TestSortAttrNames(t *testing.T) {
	sch := dataset.CustSchema()
	s := schema.SetOfNames(sch, "zip", "AC", "item")
	got := SortAttrNames(sch, s)
	if len(got) != 3 || got[0] != "AC" || got[1] != "item" || got[2] != "zip" {
		t.Fatalf("SortAttrNames = %v", got)
	}
}
