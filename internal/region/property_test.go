package region

import (
	"strings"
	"testing"

	"cerfix/internal/core"
	"cerfix/internal/dataset"
	"cerfix/internal/pattern"
	"cerfix/internal/schema"
	"cerfix/internal/value"
)

// Scale property: on a generated master relation every region found
// must honour its guarantee — for any tuple matching a tableau row
// with Z asserted, the chase completes with no conflicts and the
// outcome agrees with the master entity the row was built from.
func TestRegionGuaranteeAtScale(t *testing.T) {
	g := dataset.NewCustomerGen(77)
	entities := g.GenerateEntities(40)
	st, err := dataset.MasterStore(entities)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(dataset.CustSchema(), dataset.DemoRules(), st)
	if err != nil {
		t.Fatal(err)
	}
	regions := NewFinder(eng).TopK(&Options{K: 6})
	if len(regions) == 0 {
		t.Fatal("no regions at scale")
	}
	checked := 0
	for _, reg := range regions {
		rows := reg.Tableau.Rows
		if len(rows) > 10 {
			rows = rows[:10] // sample
		}
		for _, row := range rows {
			if checkRowGuarantee(t, eng, reg, row) {
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no rows verified")
	}
}

// checkRowGuarantee chases the canonical tuple of row with Z asserted:
// the tuple must be covered by its own region, and the chase must
// validate every attribute without conflicts. It reports false when
// the row has no equality/inequality canonical tuple.
func checkRowGuarantee(t *testing.T, eng *core.Engine, reg *Region, row pattern.Pattern) bool {
	t.Helper()
	input := eng.InputSchema()
	tu, ok := tupleForRow(input, row)
	if !ok {
		return false
	}
	if !reg.Covers(tu) {
		t.Fatalf("region %v: canonical tuple does not match its own row", reg)
	}
	res := eng.Chase(tu, reg.Z)
	if !res.AllValidated() {
		t.Fatalf("region %v row %v: incomplete chase (missing %v)",
			reg, row, schema.FullSet(input).Minus(res.Validated).Format(input))
	}
	if len(res.Conflicts) != 0 {
		t.Fatalf("region %v row %v: conflicts %v", reg, row, res.Conflicts)
	}
	return true
}

// tupleForRow builds a tuple satisfying an equality/inequality row,
// junk elsewhere.
func tupleForRow(input *schema.Schema, row pattern.Pattern) (*schema.Tuple, bool) {
	vals := make(value.List, input.Len())
	for i := range vals {
		vals[i] = value.V("garbage")
	}
	for _, cond := range row.Conds {
		i, ok := input.Index(cond.Attr)
		if !ok {
			return nil, false
		}
		if cond.Op == pattern.OpEq {
			vals[i] = cond.Const
		}
	}
	tu := &schema.Tuple{Schema: input, Vals: vals}
	return tu, row.Matches(tu)
}

// Regions computed twice are identical (the finder is deterministic).
func TestFinderDeterministic(t *testing.T) {
	e := demoEngine(t)
	a := NewFinder(e).TopK(nil)
	b := NewFinder(e).TopK(nil)
	if len(a) != len(b) {
		t.Fatalf("counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatalf("region %d differs: %v vs %v", i, a[i], b[i])
		}
		if len(a[i].Tableau.Rows) != len(b[i].Tableau.Rows) {
			t.Fatalf("region %d row counts differ", i)
		}
	}
}

// Tableaux have no row cap: at 3,500 entities the region
// {FN, LN, item, phn, type, zip} holds two rows per entity, and every
// row past the old 4,096-row cap keeps the region's guarantee.
func TestMaxTableauRowsCap(t *testing.T) {
	eng, _, _ := custEngine(t, 1, 3500)
	const oldCap = 4096
	var reg *Region
	for _, r := range NewFinder(eng).TopK(nil) {
		if strings.Join(r.AttrNames(), ",") == "FN,LN,item,phn,type,zip" {
			reg = r
		}
	}
	if reg == nil {
		t.Fatal("region {FN, LN, item, phn, type, zip} not found")
	}
	if len(reg.Tableau.Rows) <= oldCap {
		t.Fatalf("region %v: %d rows, want more than %d", reg, len(reg.Tableau.Rows), oldCap)
	}
	for _, row := range reg.Tableau.Rows[oldCap:] {
		if !checkRowGuarantee(t, eng, reg, row) {
			t.Fatalf("region %v row %v: no canonical tuple", reg, row)
		}
	}
}

// Monotonicity in master data: adding master tuples can only add
// coverage (rows), never shrink the smallest region.
func TestMoreMasterMoreCoverage(t *testing.T) {
	g := dataset.NewCustomerGen(79)
	entities := g.GenerateEntities(20)
	stSmall, err := dataset.MasterStore(entities[:10])
	if err != nil {
		t.Fatal(err)
	}
	stBig, err := dataset.MasterStore(entities)
	if err != nil {
		t.Fatal(err)
	}
	engSmall, err := core.NewEngine(dataset.CustSchema(), dataset.DemoRules(), stSmall)
	if err != nil {
		t.Fatal(err)
	}
	engBig, err := core.NewEngine(dataset.CustSchema(), dataset.DemoRules(), stBig)
	if err != nil {
		t.Fatal(err)
	}
	small := NewFinder(engSmall).TopK(&Options{K: 1})
	big := NewFinder(engBig).TopK(&Options{K: 1})
	if len(small) == 0 || len(big) == 0 {
		t.Fatal("missing regions")
	}
	if big[0].Size() != small[0].Size() {
		t.Fatalf("smallest region size changed with master growth: %d vs %d",
			small[0].Size(), big[0].Size())
	}
	if len(big[0].Tableau.Rows) < len(small[0].Tableau.Rows) {
		t.Fatalf("coverage shrank: %d vs %d rows",
			len(big[0].Tableau.Rows), len(small[0].Tableau.Rows))
	}
}
