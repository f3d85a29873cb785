package cerfix

import (
	"fmt"
	"strings"
	"testing"

	"cerfix/internal/dataset"
	"cerfix/internal/region"
)

// renderRegionList writes each region's Z, contributing cells and rows
// in order.
func renderRegionList(regions []*Region) string {
	var b strings.Builder
	for _, r := range regions {
		fmt.Fprintf(&b, "Z %v cells %v\n", r.AttrNames(), r.Cells)
		for _, row := range r.Tableau.Rows {
			fmt.Fprintf(&b, "  %s\n", row)
		}
	}
	return b.String()
}

// Regions(k) and the monitor's regions come from one ranking, kept
// with the monitor. Before and after each write that drops it, they
// must render like a fresh TopK under the same options: Regions(k)
// with K = k for k in {0, 1, 2, all + 1}, the monitor with the
// options' own K; and both must hand out the same regions.
func TestRegionsMatchFreshTopK(t *testing.T) {
	sys := demoSystem(t)
	for _, e := range dataset.NewCustomerGen(3).GenerateEntities(20) {
		if err := sys.AddMasterRow(e.Master.Strings()...); err != nil {
			t.Fatal(err)
		}
	}
	check := func(after string) {
		t.Helper()
		opts := region.Options{}
		if sys.regionOpts != nil {
			opts = *sys.regionOpts
		}
		fresh := func(k int) string {
			o := opts
			o.K = k
			return renderRegionList(region.NewFinder(sys.Engine()).TopK(&o))
		}
		all := len(region.NewFinder(sys.Engine()).TopK(&region.Options{Greedy: opts.Greedy}))
		if all < 3 {
			t.Fatalf("after %s: %d regions, too few to cut", after, all)
		}
		for _, k := range []int{0, 1, 2, all + 1} {
			if got, want := renderRegionList(sys.Regions(k)), fresh(k); got != want {
				t.Fatalf("after %s: Regions(%d) renders\n%s\na fresh TopK renders\n%s", after, k, got, want)
			}
		}
		if got, want := renderRegionList(sys.Monitor().Regions()), fresh(opts.K); got != want {
			t.Fatalf("after %s: the monitor's regions render\n%s\na fresh TopK renders\n%s", after, got, want)
		}
		if sys.Regions(1)[0] != sys.Monitor().Regions()[0] {
			t.Fatalf("after %s: Regions computed a ranking of its own", after)
		}
	}
	check("start")
	for _, w := range []struct {
		name  string
		write func() error
	}{
		{"AddMasterRow", func() error {
			return sys.AddMasterRow("Zoe", "New", "117", "5550001", "075550002",
				"1 New Rd", "Brs", "BS1 1AA", "01/01/90", "F")
		}},
		{"AddRule", func() error { return sys.AddRule(`phi10: match zip~zip set city := city`) }},
		{"RemoveRule", func() error {
			if !sys.RemoveRule("phi10") {
				return fmt.Errorf("phi10 not removed")
			}
			return nil
		}},
		{"SetRegionOptions with K", func() error { sys.SetRegionOptions(&RegionOptions{K: 2}); return nil }},
		{"SetRegionOptions without K", func() error { sys.SetRegionOptions(&RegionOptions{Greedy: true}); return nil }},
		{"SetRegionOptions(nil)", func() error { sys.SetRegionOptions(nil); return nil }},
	} {
		if err := w.write(); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		check(w.name)
	}
}
