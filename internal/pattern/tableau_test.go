package pattern

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"cerfix/internal/schema"
	"cerfix/internal/value"
)

// scanTableau is the tableau before rows were keyed: AddRow dedupes by
// re-rendering every stored row, Matches tries every row. It is the
// oracle the keyed Tableau must agree with.
type scanTableau struct {
	z    []string
	rows []Pattern
}

func (tb *scanTableau) AddRow(p Pattern) bool {
	for _, a := range p.Attrs() {
		if !slices.Contains(tb.z, a) {
			return false
		}
	}
	key := p.String()
	for _, r := range tb.rows {
		if r.String() == key {
			return true
		}
	}
	tb.rows = append(tb.rows, p)
	return true
}

func (tb *scanTableau) Matches(t *schema.Tuple) bool {
	for _, r := range tb.rows {
		if r.Matches(t) {
			return true
		}
	}
	return false
}

// Values per domain, with pairs that are equal under the domain but
// differ as bytes ("07"/"7", "1.0"/"1", "1/2/99"/"01/02/1999"), a NaN
// that DFloat compares equal to every number, unparsable values and
// the null value.
var tableauPools = map[value.Domain][]value.V{
	value.DString: {"a", "b", "7", "07", ""},
	value.DInt:    {"7", "07", "2005", "02005", "-1", "x", ""},
	value.DFloat:  {"1", "1.0", "NaN", "2.5", "abc", ""},
	value.DDate:   {"1/2/99", "01/02/1999", "3/4/05", "bad", ""},
}

// equalVariant maps a value to one that differs as bytes but is equal
// under the named domain.
var equalVariant = map[value.Domain]map[value.V]value.V{
	value.DInt:   {"7": "07", "07": "7", "2005": "02005", "02005": "2005"},
	value.DFloat: {"1": "1.0", "1.0": "1", "NaN": "2.5", "2.5": "NaN"},
	value.DDate:  {"1/2/99": "01/02/1999", "01/02/1999": "1/2/99"},
}

// diffSchema types two string attributes, one per numeric domain and a
// date; "out" is never in the tableau's Z.
var diffSchema = schema.MustNew("T",
	schema.Str("s1"), schema.Str("s2"),
	schema.Attribute{Name: "n", Domain: value.DInt},
	schema.Attribute{Name: "f", Domain: value.DFloat},
	schema.Attribute{Name: "d", Domain: value.DDate},
	schema.Str("out"),
)

func randValue(rng *rand.Rand, d value.Domain) value.V {
	// Mostly the attribute's own pool, sometimes another domain's.
	if rng.IntN(5) == 0 {
		d = value.Domain(rng.IntN(4))
	}
	pool := tableauPools[d]
	return pool[rng.IntN(len(pool))]
}

func randCondition(rng *rand.Rand, sch *schema.Schema) Condition {
	a := sch.Attr(rng.IntN(sch.Len()))
	if a.Name == "out" && rng.IntN(4) != 0 {
		a = sch.Attr(0) // out-of-scope rows stay rare
	}
	switch r := rng.IntN(10); {
	case r < 5:
		return Eq(a.Name, randValue(rng, a.Domain))
	case r == 5:
		return Ne(a.Name, randValue(rng, a.Domain))
	case r == 6:
		return In(a.Name, randValue(rng, a.Domain), randValue(rng, a.Domain))
	case r == 7:
		return Any(a.Name)
	default:
		ops := []func(string, value.V) Condition{Lt, Le, Gt, Ge}
		return ops[rng.IntN(len(ops))](a.Name, randValue(rng, a.Domain))
	}
}

func randTuple(rng *rand.Rand, sch *schema.Schema) *schema.Tuple {
	vals := make(value.List, sch.Len())
	for i := range vals {
		vals[i] = randValue(rng, sch.Attr(i).Domain)
	}
	return &schema.Tuple{Schema: sch, Vals: vals}
}

// The keyed Tableau agrees with the row scan on AddRow results, on
// Rows and their order, and on Matches, over random rows mixing every
// operator and domain, duplicates and repeated pins of one attribute.
func TestTableauMatchesRowScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 1))
	z := []string{"s1", "s2", "n", "f", "d"}
	probes, hits := 0, 0
	for trial := 0; trial < 1000; trial++ {
		keyed := NewTableau(diffSchema, z)
		oracle := &scanTableau{z: keyed.Z}
		var added []Pattern
		for r, nRows := 0, rng.IntN(12); r < nRows; r++ {
			var p Pattern
			if len(added) > 0 && rng.IntN(4) == 0 {
				p = NewPattern(added[rng.IntN(len(added))].Conds...) // duplicate
			} else {
				n := 2 + rng.IntN(3)
				if rng.IntN(50) == 0 {
					n = 0 // the empty row matches every tuple
				}
				conds := make([]Condition, n)
				for i := range conds {
					conds[i] = randCondition(rng, diffSchema)
				}
				p = NewPattern(conds...)
			}
			added = append(added, p)
			if got, want := keyed.AddRow(p), oracle.AddRow(p); got != want {
				t.Fatalf("trial %d: AddRow(%v) = %v, row scan %v", trial, p, got, want)
			}
		}
		if !reflect.DeepEqual(keyed.Rows, oracle.rows) {
			t.Fatalf("trial %d: rows\n%v\nrow scan\n%v", trial, keyed.Rows, oracle.rows)
		}
		for i := 0; i < 200; i++ {
			tu := randTuple(rng, diffSchema)
			if len(oracle.rows) > 0 && i%2 == 0 {
				// Aim at a stored row: copy its "=" constants, some as
				// variants equal only under the attribute's domain.
				for _, c := range oracle.rows[rng.IntN(len(oracle.rows))].Conds {
					if j, ok := diffSchema.Index(c.Attr); ok && c.Op == OpEq {
						tu.Vals[j] = c.Const
						if v, ok := equalVariant[diffSchema.Attr(j).Domain][c.Const]; ok && rng.IntN(2) == 0 {
							tu.Vals[j] = v
						}
					}
				}
			}
			got, want := keyed.Matches(tu), oracle.Matches(tu)
			if got != want {
				t.Fatalf("trial %d: Matches(%v) = %v, row scan %v; rows %v", trial, tu.Vals, got, want, oracle.rows)
			}
			probes++
			if got {
				hits++
			}
		}
	}
	if hits < probes/10 || hits > probes*9/10 {
		t.Fatalf("%d of %d probes matched; the generator no longer exercises both outcomes", hits, probes)
	}
	t.Logf("%d of %d probes matched", hits, probes)
}
