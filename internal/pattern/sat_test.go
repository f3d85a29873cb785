package pattern

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"cerfix/internal/schema"
	"cerfix/internal/value"
)

func satSchema(t *testing.T) *schema.Schema {
	t.Helper()
	return schema.MustNew("R",
		schema.Str("a"), schema.Str("b"), schema.Int("n"))
}

func TestSatisfiableBasic(t *testing.T) {
	sch := satSchema(t)
	cases := []struct {
		name string
		p    Pattern
		want bool
	}{
		{"empty", NewPattern(), true},
		{"single eq", NewPattern(Eq("a", "x")), true},
		{"contradictory eq", NewPattern(Eq("a", "x"), Eq("a", "y")), false},
		{"eq twice same", NewPattern(Eq("a", "x"), Eq("a", "x")), true},
		{"eq vs ne", NewPattern(Eq("a", "x"), Ne("a", "x")), false},
		{"eq with other ne", NewPattern(Eq("a", "x"), Ne("a", "y")), true},
		{"pure ne always sat", NewPattern(Ne("a", "x"), Ne("a", "y")), true},
		{"in empty-intersection", NewPattern(In("a", "x"), In("a", "y")), false},
		{"in overlapping", NewPattern(In("a", "x", "y"), In("a", "y", "z")), true},
		{"in excluded", NewPattern(In("a", "x"), Ne("a", "x")), false},
		{"interval ok", NewPattern(Ge("n", "1"), Le("n", "5")), true},
		{"interval empty", NewPattern(Gt("n", "5"), Lt("n", "5")), false},
		{"interval crossing", NewPattern(Ge("n", "9"), Le("n", "3")), false},
		{"point interval", NewPattern(Ge("n", "5"), Le("n", "5")), true},
		{"point interval excluded", NewPattern(Ge("n", "5"), Le("n", "5"), Ne("n", "5")), false},
		{"point interval open", NewPattern(Ge("n", "5"), Lt("n", "5")), false},
		{"eq outside interval", NewPattern(Eq("n", "9"), Lt("n", "5")), false},
		{"eq inside interval", NewPattern(Eq("n", "3"), Lt("n", "5")), true},
		{"independent attrs", NewPattern(Eq("a", "x"), Eq("b", "y")), true},
	}
	for _, c := range cases {
		if got := Satisfiable(c.p, sch); got != c.want {
			t.Errorf("%s: Satisfiable(%v) = %v, want %v", c.name, c.p, got, c.want)
		}
	}
}

func TestJointlySatisfiable(t *testing.T) {
	sch := satSchema(t)
	p := NewPattern(Eq("a", "1"))
	q := NewPattern(Eq("a", "2"))
	if JointlySatisfiable(p, q, sch) {
		t.Error("disjoint equalities reported jointly satisfiable")
	}
	r := NewPattern(Ne("a", "2"))
	if !JointlySatisfiable(p, r, sch) {
		t.Error("compatible patterns reported unsatisfiable")
	}
	// The demo's φ4/φ6 situation: type="2" vs type="1" never co-apply.
	mobile := NewPattern(Eq("b", "2"))
	home := NewPattern(Eq("b", "1"))
	if JointlySatisfiable(mobile, home, sch) {
		t.Error("type=1 and type=2 patterns should be disjoint")
	}
	if !JointlySatisfiable(NewPattern(), NewPattern(), sch) {
		t.Error("two empty patterns must be satisfiable")
	}
}

// Soundness property: if a concrete tuple matches both patterns, they
// must be reported jointly satisfiable.
func TestJointSatSoundness(t *testing.T) {
	sch := satSchema(t)
	consts := []value.V{"0", "1", "2", "3"}
	ops := []func(string, value.V) Condition{Eq, Ne, Lt, Le, Gt, Ge}
	f := func(seedA, seedB, tupSeed uint16) bool {
		mk := func(seed uint16) Pattern {
			c1 := ops[int(seed)%len(ops)]("a", consts[int(seed>>3)%len(consts)])
			c2 := ops[int(seed>>6)%len(ops)]("b", consts[int(seed>>9)%len(consts)])
			return NewPattern(c1, c2)
		}
		pa, pb := mk(seedA), mk(seedB)
		tu := schema.MustTuple(sch,
			consts[int(tupSeed)%len(consts)],
			consts[int(tupSeed>>4)%len(consts)],
			"0")
		if pa.Matches(tu) && pb.Matches(tu) {
			return JointlySatisfiable(pa, pb, sch)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestNegate(t *testing.T) {
	sch := satSchema(t)
	p := NewPattern(Eq("a", "x"), Ne("b", "y"))
	neg := Negate(p)
	if len(neg) != 2 {
		t.Fatalf("Negate branches = %d", len(neg))
	}
	// Every tuple matches p or at least one negation branch, never both.
	for _, av := range []value.V{"x", "z"} {
		for _, bv := range []value.V{"y", "w"} {
			tu := schema.MustTuple(sch, av, bv, "0")
			inP := p.Matches(tu)
			inNeg := false
			for _, n := range neg {
				if n.Matches(tu) {
					inNeg = true
				}
			}
			if inP == inNeg {
				t.Errorf("tuple (%s,%s): p=%v neg=%v — complement violated", av, bv, inP, inNeg)
			}
		}
	}
	if got := Negate(NewPattern()); len(got) != 0 {
		t.Errorf("Negate(empty) = %v", got)
	}
	if got := Negate(NewPattern(Any("a"))); len(got) != 0 {
		t.Errorf("Negate(wildcard) = %v", got)
	}
}

func TestNegateIn(t *testing.T) {
	sch := satSchema(t)
	p := NewPattern(In("a", "x", "y"))
	neg := Negate(p)
	if len(neg) != 1 {
		t.Fatalf("Negate(IN) branches = %d", len(neg))
	}
	tu := schema.MustTuple(sch, "z", "b", "0")
	if !neg[0].Matches(tu) {
		t.Error("z should match not-in {x,y}")
	}
	tu2 := schema.MustTuple(sch, "x", "b", "0")
	if neg[0].Matches(tu2) {
		t.Error("x should not match not-in {x,y}")
	}
}

func TestNegateLtGt(t *testing.T) {
	sch := satSchema(t)
	for _, c := range []Condition{Lt("n", "5"), Le("n", "5"), Gt("n", "5"), Ge("n", "5")} {
		neg := Negate(NewPattern(c))
		if len(neg) != 1 {
			t.Fatalf("Negate(%v) branches = %d", c, len(neg))
		}
		for _, v := range []value.V{"3", "5", "7"} {
			tu := schema.MustTuple(sch, "a", "b", v)
			p := NewPattern(c)
			if p.Matches(tu) == neg[0].Matches(tu) {
				t.Errorf("%v at n=%s: negation not complementary", c, v)
			}
		}
	}
}

func TestTableau(t *testing.T) {
	sch := satSchema(t)
	tb := NewTableau(sch, []string{"b", "a"})
	if tb.Z[0] != "a" || tb.Z[1] != "b" {
		t.Fatalf("Z not sorted: %v", tb.Z)
	}
	if !tb.AddRow(NewPattern(Eq("a", "1"))) {
		t.Fatal("in-scope row rejected")
	}
	if tb.AddRow(NewPattern(Eq("n", "1"))) {
		t.Fatal("out-of-scope row accepted")
	}
	// duplicate row dropped
	tb.AddRow(NewPattern(Eq("a", "1")))
	if len(tb.Rows) != 1 {
		t.Fatalf("duplicate row not dropped: %d rows", len(tb.Rows))
	}
	tu := schema.MustTuple(sch, "1", "x", "0")
	if !tb.Matches(tu) {
		t.Error("row should match")
	}
	tu2 := schema.MustTuple(sch, "2", "x", "0")
	if tb.Matches(tu2) {
		t.Error("non-matching tuple matched")
	}
	empty := NewTableau(sch, []string{"a"})
	if empty.Matches(tu) {
		t.Error("empty tableau must match nothing")
	}
}

// The folded pin check is Satisfiable(conds ∧ attr = v): over random
// condition lists of every operator on one attribute of each domain
// (the same list repeated, as the region finder folds it, included),
// and over values that are equal as numbers but not as bytes, "NaN"
// (equal to every number under DFloat) and unparsable strings.
func TestPinCheckMatchesSatisfiable(t *testing.T) {
	vals := []value.V{"02005", "2005", "NaN", "nan", "1e3", "1000", "-1", "3.5", "junk-1", "a", "b", ""}
	rng := rand.New(rand.NewPCG(11, 7))
	pick := func() value.V { return vals[rng.IntN(len(vals))] }
	for _, d := range []value.Domain{value.DString, value.DInt, value.DFloat} {
		sch := schema.MustNew("R", schema.Attribute{Name: "x", Domain: d})
		for n := 0; n < 4000; n++ {
			var conds []Condition
			for i, k := 0, rng.IntN(5); i < k; i++ {
				switch rng.IntN(7) {
				case 0:
					conds = append(conds, Eq("x", pick()))
				case 1:
					conds = append(conds, Ne("x", pick()))
				case 2:
					conds = append(conds, Lt("x", pick()))
				case 3:
					conds = append(conds, Le("x", pick()))
				case 4:
					conds = append(conds, Gt("x", pick()))
				case 5:
					conds = append(conds, Ge("x", pick()))
				default:
					conds = append(conds, In("x", pick(), pick(), pick()))
				}
			}
			if rng.IntN(2) == 0 {
				conds = append(conds, conds...)
			}
			check := FoldPin("x", conds, sch)
			for _, v := range vals {
				want := Satisfiable(NewPattern(append(append([]Condition(nil), conds...), Eq("x", v))...), sch)
				if got := check.Admits(v); got != want {
					t.Fatalf("%s: FoldPin(%v).Admits(%q) = %v, Satisfiable = %v", d, NewPattern(conds...), v, got, want)
				}
			}
		}
	}
}
