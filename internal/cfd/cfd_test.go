package cfd

import (
	"strings"
	"testing"

	"cerfix/internal/core"
	"cerfix/internal/dataset"
	"cerfix/internal/master"
	"cerfix/internal/rule"
	"cerfix/internal/schema"
	"cerfix/internal/value"
)

// Example1CFDs are ψ1 and ψ2 from the paper's Example 1.
const example1CFDs = `
psi1: AC = "020" -> city = "Ldn"
psi2: AC = "131" -> city = "Edi"
`

func mustParseSet(t *testing.T, src string) []*CFD {
	t.Helper()
	cs, err := ParseSet(src)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

func TestParseConstantCFD(t *testing.T) {
	c, err := Parse(`psi1: AC = "020" -> city = "Ldn"`)
	if err != nil {
		t.Fatal(err)
	}
	if c.ID != "psi1" || !c.IsConstant() {
		t.Fatalf("parsed = %+v", c)
	}
	if len(c.LHS) != 1 || !c.LHS[0].IsConst() || *c.LHS[0].Const != "020" {
		t.Fatalf("LHS = %+v", c.LHS)
	}
	if c.RHS[0].Attr != "city" || *c.RHS[0].Const != "Ldn" {
		t.Fatalf("RHS = %+v", c.RHS)
	}
}

func TestParseVariableCFD(t *testing.T) {
	c, err := Parse(`fd1: zip -> city, str`)
	if err != nil {
		t.Fatal(err)
	}
	if c.IsConstant() {
		t.Fatal("variable CFD reported constant")
	}
	if len(c.RHS) != 2 || c.RHS[1].Attr != "str" {
		t.Fatalf("RHS = %+v", c.RHS)
	}
}

func TestParseMixedCFD(t *testing.T) {
	c, err := Parse(`mix: country = "44", zip -> city`)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.LHS) != 2 || !c.LHS[0].IsConst() || c.LHS[1].IsConst() {
		t.Fatalf("LHS = %+v", c.LHS)
	}
}

func TestParseWildcardUnderscore(t *testing.T) {
	c, err := Parse(`w: zip = _ -> city`)
	if err != nil {
		t.Fatal(err)
	}
	if c.LHS[0].IsConst() {
		t.Fatal("underscore treated as constant")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`noarrow: a, b`,
		`: a -> b`,
		`x: -> b`,
		`x: a ->`,
		`x: a -> b = "unterminated`,
		`bad id: a -> b`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted", src)
		}
	}
	if _, err := ParseSet("a: x -> y\na: x -> y\n"); err == nil {
		t.Error("duplicate ids accepted")
	}
}

func TestStringRoundTrip(t *testing.T) {
	for _, src := range []string{
		`psi1: AC = "020" -> city = "Ldn"`,
		`fd1: zip -> city, str`,
	} {
		c, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		c2, err := Parse(c.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", c.String(), err)
		}
		if c2.String() != c.String() {
			t.Fatalf("round trip: %q vs %q", c.String(), c2.String())
		}
	}
}

func TestValidate(t *testing.T) {
	sch := dataset.CustSchema()
	good := mustParseSet(t, example1CFDs)
	for _, c := range good {
		if err := c.Validate(sch); err != nil {
			t.Fatal(err)
		}
	}
	bad, _ := Parse(`x: bogus -> city`)
	if err := bad.Validate(sch); err == nil {
		t.Error("unknown attribute accepted")
	}
	both, _ := Parse(`x: city -> city`)
	if err := both.Validate(sch); err == nil {
		t.Error("attr on both sides accepted")
	}
	dup, _ := Parse(`x: zip -> city, city`)
	if err := dup.Validate(sch); err == nil {
		t.Error("duplicate RHS accepted")
	}
}

// Example 1: the CFDs detect that t[AC, city] = (020, Edi) is
// inconsistent — but they cannot say which attribute is wrong.
func TestCheckTupleExample1(t *testing.T) {
	cfds := mustParseSet(t, example1CFDs)
	tu := dataset.DemoInputExample1() // AC=020, city=Edi
	vs := CheckTuple(cfds, tu)
	if len(vs) != 1 {
		t.Fatalf("violations = %v", vs)
	}
	v := vs[0]
	if v.CFDID != "psi1" || v.Attr != "city" || v.Want != "Ldn" || v.Got != "Edi" {
		t.Fatalf("violation = %+v", v)
	}
	if !strings.Contains(v.String(), "psi1") {
		t.Errorf("String = %q", v.String())
	}
	// The corrected tuple (AC=131) satisfies ψ2: no violations.
	fixed := tu.Clone()
	fixed.Set("AC", "131")
	if vs := CheckTuple(cfds, fixed); len(vs) != 0 {
		t.Fatalf("clean tuple flagged: %v", vs)
	}
}

func TestCheckTableVariableCFD(t *testing.T) {
	sch := schema.MustNew("R", schema.Str("zip"), schema.Str("city"))
	var rows []*schema.Tuple
	add := func(vals ...value.V) {
		tu := schema.MustTuple(sch, vals...)
		tu.ID = int64(len(rows) + 1)
		rows = append(rows, tu)
	}
	add("Z1", "Edi")
	add("Z1", "Ldn") // violates zip -> city
	add("Z2", "Mnc")
	add("Z2", "Mnc")
	cfds := mustParseSet(t, "fd: zip -> city")
	vs := CheckTable(cfds, rows)
	if len(vs) != 1 {
		t.Fatalf("violations = %v", vs)
	}
	if vs[0].TupleB == 0 {
		t.Fatal("pair violation missing second witness")
	}
	if !strings.Contains(vs[0].String(), "agree on LHS") {
		t.Errorf("String = %q", vs[0].String())
	}
}

// The heuristic baseline resolves Example 1 by rewriting city to Ldn —
// "repairing" the tuple into a state that satisfies the CFDs while
// both breaking the correct city and keeping the wrong AC. This is the
// paper's core motivating failure.
func TestRepairTupleReproducesExample1Failure(t *testing.T) {
	cfds := mustParseSet(t, example1CFDs)
	rep := NewRepairer(cfds)
	fixed, changed := rep.RepairTuple(dataset.DemoInputExample1())
	if changed == 0 {
		t.Fatal("baseline changed nothing")
	}
	if fixed.Get("city") != "Ldn" {
		t.Fatalf("city = %q, expected the heuristic to force Ldn", fixed.Get("city"))
	}
	if fixed.Get("AC") != "020" {
		t.Fatalf("AC = %q, heuristic should not have touched it", fixed.Get("AC"))
	}
	// The result satisfies the CFDs — dirty data "repaired" wrong.
	if vs := CheckTuple(cfds, fixed); len(vs) != 0 {
		t.Fatalf("violations remain: %v", vs)
	}
}

func TestRepairTableConstant(t *testing.T) {
	rows := []*schema.Tuple{dataset.DemoInputExample1()}
	cfds := mustParseSet(t, example1CFDs)
	stats := NewRepairer(cfds).RepairTable(rows)
	if stats.CellsChanged == 0 {
		t.Fatal("no repairs made")
	}
	if stats.Remaining != 0 {
		t.Fatalf("remaining = %d", stats.Remaining)
	}
	if got := rows[0]; got.Get("city") != "Ldn" {
		t.Fatalf("city = %q", got.Get("city"))
	}
}

func TestRepairTableVariablePlurality(t *testing.T) {
	sch := schema.MustNew("R", schema.Str("zip"), schema.Str("city"))
	var rows []*schema.Tuple
	for _, city := range []value.V{"Edi", "Edi", "Edj"} {
		rows = append(rows, schema.MustTuple(sch, "Z1", city))
	}
	cfds := mustParseSet(t, "fd: zip -> city")
	stats := NewRepairer(cfds).RepairTable(rows)
	if stats.CellsChanged != 1 {
		t.Fatalf("changed = %d", stats.CellsChanged)
	}
	for _, tu := range rows {
		if tu.Get("city") != "Edi" {
			t.Fatalf("plurality not enforced: %v", tu)
		}
	}
	if stats.Remaining != 0 {
		t.Fatalf("remaining = %d", stats.Remaining)
	}
}

func TestPluralityTieBreakByCost(t *testing.T) {
	sch := schema.MustNew("R", schema.Str("k"), schema.Str("v"))
	group := []*schema.Tuple{
		schema.MustTuple(sch, "K", "abc"),
		schema.MustTuple(sch, "K", "abd"),
	}
	// Tie 1-1; costs equal (distance 1 both ways): lexicographic wins.
	got := pluralityValue(group, "v")
	if got != "abc" {
		t.Fatalf("tie break = %q", got)
	}
}

// Deriving eRs from the demo CFDs yields rules that, with master data,
// produce correct fixes where the bare CFDs could not.
func TestDeriveRules(t *testing.T) {
	sch := dataset.CustSchema()
	cfds := mustParseSet(t, "fdzip: zip -> city, str")
	rules, err := DeriveRules(cfds, sch)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 1 {
		t.Fatalf("rules = %d", len(rules))
	}
	r := rules[0]
	if r.ID != "er_fdzip" {
		t.Fatalf("ID = %q", r.ID)
	}
	if len(r.Match) != 1 || r.Match[0].Input != "zip" || len(r.Set) != 2 {
		t.Fatalf("rule = %v", r)
	}
	if !strings.Contains(r.Comment, "derived from cfd") {
		t.Errorf("Comment = %q", r.Comment)
	}
}

func TestDeriveRulesConstantPattern(t *testing.T) {
	sch := dataset.CustSchema()
	cfds := mustParseSet(t, `c: type = "1", AC -> city`)
	rules, err := DeriveRules(cfds, sch)
	if err != nil {
		t.Fatal(err)
	}
	r := rules[0]
	if len(r.When.Conds) != 1 || r.When.Conds[0].Attr != "type" {
		t.Fatalf("pattern = %v", r.When)
	}
	if len(r.Match) != 2 {
		t.Fatalf("match = %v", r.Match)
	}
}

func TestDeriveRulesValidateError(t *testing.T) {
	sch := dataset.CustSchema()
	bad, _ := Parse(`x: bogus -> city`)
	if _, err := DeriveRules([]*CFD{bad}, sch); err == nil {
		t.Fatal("invalid cfd derived")
	}
}

// End to end: derived rules run through the engine and fix Example 1
// correctly (AC := 131) — the contrast with the heuristic baseline.
func TestDerivedRulesFixExample1Correctly(t *testing.T) {
	// Same-schema master: the CUST projection of the demo person rows.
	sch := dataset.CustSchema()
	st := master.New(sch)
	if _, err := st.InsertValues("Robert", "Brady", "131", "079172485", "2", "501 Elm St", "Edi", "EH8 4AH", "CD"); err != nil {
		t.Fatal(err)
	}
	cfds := mustParseSet(t, "fdzip: zip -> AC, city, str")
	derived, err := DeriveRules(cfds, sch)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rule.NewSet(derived...)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(sch, rs, st)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Chase(dataset.DemoInputExample1(), schema.SetOfNames(sch, "zip"))
	if res.Tuple.Get("AC") != "131" {
		t.Fatalf("AC = %q", res.Tuple.Get("AC"))
	}
	if res.Tuple.Get("city") != "Edi" {
		t.Fatalf("city = %q — derived rules must not break correct values", res.Tuple.Get("city"))
	}
}
