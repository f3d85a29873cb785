package region

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"

	"cerfix/internal/core"
	"cerfix/internal/master"
	"cerfix/internal/pattern"
	"cerfix/internal/rule"
	"cerfix/internal/schema"
	"cerfix/internal/value"
)

// fuzzValues are the constants and master values a fuzzed world draws
// from: numbers equal under DInt or DFloat but not as bytes ("02005"
// and "2005", "1e3" and "1000"), "NaN", which DFloat compares equal to
// every number, the probe's own junk markers, and plain strings.
var fuzzValues = []value.V{"02005", "2005", "NaN", "1e3", "1000", "-1", "3.5", "junk-1", "junk-0", "a", "b", ""}

// fuzzDomains are the attribute domains a fuzzed world draws from.
var fuzzDomains = []value.Domain{value.DString, value.DInt, value.DFloat}

// fuzzBytes reads the fuzz input as a stream of small choices; an
// exhausted stream reads as zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0])
	*b = (*b)[1:]
	return v % n
}

// fuzzCondition draws one pattern condition on attr.
func (b *fuzzBytes) condition(attr string) pattern.Condition {
	c := func() value.V { return fuzzValues[b.next(len(fuzzValues))] }
	switch b.next(7) {
	case 0:
		return pattern.Eq(attr, c())
	case 1:
		return pattern.Ne(attr, c())
	case 2:
		return pattern.Lt(attr, c())
	case 3:
		return pattern.Le(attr, c())
	case 4:
		return pattern.Gt(attr, c())
	case 5:
		return pattern.Ge(attr, c())
	default:
		set := []value.V{c()}
		for i, n := 0, b.next(3); i < n; i++ {
			set = append(set, c())
		}
		return pattern.In(attr, set...)
	}
}

// fuzzWorld builds an engine from the fuzz input, or nil when the
// drawn rules do not form a valid set. The bytes choose, in order:
//
//   - 3–6 input attributes a0.., each DString, DInt or DFloat; master
//     attribute mi has ai's domain;
//   - 2–5 rules, each matching 1–2 input attributes to master ones,
//     setting 1–2 others from master ones, with 0–2 conditions of any
//     operator over fuzzValues;
//   - 1–30 master rows over fuzzValues.
func fuzzWorld(t *testing.T, data []byte) *core.Engine {
	b := fuzzBytes(data)
	n := 3 + b.next(4)
	var in, ma []schema.Attribute
	for i := 0; i < n; i++ {
		d := fuzzDomains[b.next(len(fuzzDomains))]
		in = append(in, schema.Attribute{Name: fmt.Sprintf("a%d", i), Domain: d})
		ma = append(ma, schema.Attribute{Name: fmt.Sprintf("m%d", i), Domain: d})
	}
	input := schema.MustNew("IN", in...)
	masterSch := schema.MustNew("MA", ma...)
	attr := func() string { return in[b.next(n)].Name }
	mattr := func() string { return ma[b.next(n)].Name }

	var rules []*rule.Rule
	for i, nr := 0, 2+b.next(4); i < nr; i++ {
		r := &rule.Rule{ID: fmt.Sprintf("r%d", i)}
		used := map[string]bool{}
		for j, nm := 0, 1+b.next(2); j < nm; j++ {
			if a := attr(); !used[a] {
				used[a] = true
				r.Match = append(r.Match, rule.Correspondence{Input: a, Master: mattr()})
			}
		}
		for j, ns := 0, 1+b.next(2); j < ns; j++ {
			if a := attr(); !used[a] {
				used[a] = true
				r.Set = append(r.Set, rule.Correspondence{Input: a, Master: mattr()})
			}
		}
		var conds []pattern.Condition
		for j, nc := 0, b.next(3); j < nc; j++ {
			conds = append(conds, b.condition(attr()))
		}
		r.When = pattern.NewPattern(conds...)
		rules = append(rules, r)
	}
	rs, err := rule.NewSet(rules...)
	if err != nil || rs.Validate(input, masterSch) != nil {
		return nil
	}
	st := master.New(masterSch)
	for i, nm := 0, 1+b.next(30); i < nm; i++ {
		vals := make([]value.V, n)
		for j := range vals {
			vals[j] = fuzzValues[b.next(len(fuzzValues))]
		}
		if _, err := st.InsertValues(vals...); err != nil {
			t.Fatal(err)
		}
	}
	eng, err := core.NewEngine(input, rs, st)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// FuzzRegionRows holds TopK to the reference finder on generated small
// worlds (checkRowsMatchReference).
func FuzzRegionRows(f *testing.F) {
	rng := rand.New(rand.NewPCG(27, 1))
	for i := 0; i < 24; i++ {
		seed := make([]byte, 160)
		for j := range seed {
			seed[j] = byte(rng.Uint32())
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if eng := fuzzWorld(t, data); eng != nil {
			checkRowsMatchReference(t, eng)
		}
	})
}

// A cell may pin one DFloat attribute with = three times, "1000",
// "NaN" and "3.5" in that order: the chain is satisfiable, since each
// constant equals the one before it, but the row conditions repeat it,
// and "3.5" does not equal "1000". So no row survives the
// satisfiability test, although a master "NaN" matches every
// condition on its own. Only the folded check, over both copies of the
// conditions, rejects that row.
func TestRegionRowsNaNPinChain(t *testing.T) {
	input := schema.MustNew("IN", schema.Attribute{Name: "a0", Domain: value.DFloat}, schema.Str("a1"), schema.Str("a2"))
	masterSch := schema.MustNew("MA", schema.Attribute{Name: "m0", Domain: value.DFloat}, schema.Str("m1"), schema.Str("m2"))
	rs := rule.MustSet(
		&rule.Rule{ID: "r0", Match: []rule.Correspondence{{Input: "a0", Master: "m0"}}, Set: []rule.Correspondence{{Input: "a1", Master: "m1"}},
			When: pattern.NewPattern(pattern.Eq("a0", "1000"), pattern.Eq("a0", "NaN"))},
		&rule.Rule{ID: "r1", Match: []rule.Correspondence{{Input: "a0", Master: "m0"}}, Set: []rule.Correspondence{{Input: "a2", Master: "m2"}},
			When: pattern.NewPattern(pattern.Eq("a0", "3.5"))},
	)
	st := master.New(masterSch)
	for _, row := range [][]value.V{{"NaN", "x", "y"}, {"1000", "x", "y"}, {"3.5", "u", "v"}} {
		if _, err := st.InsertValues(row...); err != nil {
			t.Fatal(err)
		}
	}
	eng, err := core.NewEngine(input, rs, st)
	if err != nil {
		t.Fatal(err)
	}
	checkRowsMatchReference(t, eng)
}

// checkRowsMatchReference holds TopK to refTopK (reference_test.go)
// with the exact and the greedy Z search: the renderings — regions,
// cells, rows and their order — must be byte-identical, and no tableau
// may hold two rows with the same string form.
func checkRowsMatchReference(t *testing.T, eng *core.Engine) {
	t.Helper()
	for _, opts := range []*Options{nil, {Greedy: true}} {
		got := NewFinder(eng).TopK(opts)
		var gotText, wantText bytes.Buffer
		renderRegions(&gotText, got)
		renderRegions(&wantText, refTopK(NewFinder(eng), opts))
		if !bytes.Equal(gotText.Bytes(), wantText.Bytes()) {
			t.Fatalf("rules:\n%s\noptions %+v: TopK renders\n%s\nthe reference renders\n%s",
				eng.Rules(), opts, gotText.Bytes(), wantText.Bytes())
		}
		for _, reg := range got {
			seen := map[string]bool{}
			for _, row := range reg.Tableau.Rows {
				if seen[row.String()] {
					t.Fatalf("region %v holds row %s twice", reg, row)
				}
				seen[row.String()] = true
			}
		}
	}
}
