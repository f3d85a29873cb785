package region

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"

	"cerfix/internal/core"
	"cerfix/internal/dataset"
	"cerfix/internal/master"
	"cerfix/internal/value"
)

// custEngine builds the demo rules φ1–φ9 over n CustomerGen entities.
func custEngine(tb testing.TB, seed uint64, n int) (*core.Engine, *dataset.CustomerGen, []dataset.Entity) {
	tb.Helper()
	g := dataset.NewCustomerGen(seed)
	entities := g.GenerateEntities(n)
	st, err := dataset.MasterStore(entities)
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := core.NewEngine(dataset.CustSchema(), dataset.DemoRules(), st)
	if err != nil {
		tb.Fatal(err)
	}
	return eng, g, entities
}

// dblpEngine builds the DBLP rules over n generated publications.
func dblpEngine(tb testing.TB, n int) (*core.Engine, []value.List) {
	tb.Helper()
	rows := dataset.NewDblpGen(1).GenerateMasterRows(n)
	st := master.New(dataset.DblpSchema())
	for _, r := range rows {
		if _, err := st.InsertValues(r...); err != nil {
			tb.Fatal(err)
		}
	}
	eng, err := core.NewEngine(dataset.DblpSchema(), dataset.DblpRules(), st)
	if err != nil {
		tb.Fatal(err)
	}
	return eng, rows
}

// renderRegions writes each region's Z, contributing cells and rows in
// TopK order.
func renderRegions(w io.Writer, regions []*Region) {
	for _, r := range regions {
		fmt.Fprintf(w, "Z %v cells %v\n", r.AttrNames(), r.Cells)
		for _, row := range r.Tableau.Rows {
			fmt.Fprintf(w, "  %s\n", row)
		}
	}
}

// TopK output — regions, cells, rows and row order — is pinned to
// checksums of the renderings produced by the row-scan tableau with
// its 4,096-row cap, over worlds where no region reaches the cap.
func TestTopKParity(t *testing.T) {
	want := map[string]string{
		"demo":     "b985b92777ff34862f3ec0666a55a1c4350ad29ea695c81902254d69fa07431c",
		"cust-100": "63e45a9baac71a847616545c59f73c91a3598f3609f51f79ceb0d45273456f5f",
		"cust-500": "be204edff27bbf35d9c206e6fb82c4a4d49779993c69421c34497f54a19c3006",
		"dblp-60":  "4e7c52194fef0ec257c4d5ade64dfe22536e4942c20598f958ba98247b804e7b",
	}
	worlds := map[string]func() *core.Engine{
		"demo":    func() *core.Engine { return demoEngine(t) },
		"dblp-60": func() *core.Engine { e, _ := dblpEngine(t, 60); return e },
	}
	// CustomerGen rows pin only serial-derived zips, phones and area
	// codes, so other seeds render the same tableaux; seed 1 stands for
	// them.
	for _, n := range []int{100, 500} {
		worlds[fmt.Sprintf("cust-%d", n)] = func() *core.Engine {
			e, _, _ := custEngine(t, 1, n)
			return e
		}
	}
	for name, build := range worlds {
		h := sha256.New()
		regions := NewFinder(build()).TopK(nil)
		renderRegions(h, regions)
		got := hex.EncodeToString(h.Sum(nil))
		rows := 0
		for _, r := range regions {
			rows += len(r.Tableau.Rows)
		}
		t.Logf("%s: %d regions, %d rows, %s", name, len(regions), rows, got)
		if got != want[name] {
			t.Errorf("%s: TopK rendering checksum %s, want %s", name, got, want[name])
		}
	}
}
