package region

import (
	"fmt"
	"sync"
	"testing"

	"cerfix/internal/dataset"
	"cerfix/internal/schema"
	"cerfix/internal/value"
)

// rowScan is Covers as the row-by-row test of every tableau row.
func rowScan(r *Region, t *schema.Tuple) bool {
	for _, row := range r.Tableau.Rows {
		if row.Matches(t) {
			return true
		}
	}
	return false
}

// checkCoversMatchesScan compares Covers with the row scan for every
// region and tuple and returns how many (region, tuple) pairs covered.
func checkCoversMatchesScan(t *testing.T, regions []*Region, tuples []*schema.Tuple) int {
	t.Helper()
	covered := 0
	for _, tu := range tuples {
		for _, r := range regions {
			got, want := r.Covers(tu), rowScan(r, tu)
			if got != want {
				t.Fatalf("region %v: Covers(%v) = %v, row scan %v", r, tu.Vals, got, want)
			}
			if got {
				covered++
			}
		}
	}
	return covered
}

// Covers equals the row scan on clean, noisy and junk CustomerGen
// tuples.
func TestCoversMatchesRowScan(t *testing.T) {
	eng, g, entities := custEngine(t, 1, 300)
	regions := NewFinder(eng).TopK(nil)
	var clean, noisy, junk []*schema.Tuple
	for _, e := range entities {
		clean = append(clean, g.CleanInput(e))
	}
	noise := dataset.NewNoise(2, 0.3)
	for _, tu := range clean {
		d, _ := noise.Dirty(tu, clean)
		noisy = append(noisy, d)
	}
	input := eng.InputSchema()
	for i := 0; i < 300; i++ {
		vals := make(value.List, input.Len())
		for j := range vals {
			vals[j] = value.V(fmt.Sprintf("junk-%d-%d", i, j))
		}
		junk = append(junk, &schema.Tuple{Schema: input, Vals: vals})
	}
	for _, c := range []struct {
		name     string
		tuples   []*schema.Tuple
		min, max int // covered (region, tuple) pairs
	}{
		{"clean", clean, len(clean), len(clean) * len(regions)},
		{"noisy", noisy, 1, len(noisy)*len(regions) - 1},
		{"junk", junk, 0, 0},
	} {
		covered := checkCoversMatchesScan(t, regions, c.tuples)
		if covered < c.min || covered > c.max {
			t.Errorf("%s: %d covered pairs, want %d..%d", c.name, covered, c.min, c.max)
		}
	}
}

// Covers equals the row scan on DBLP, whose region ({title, year})
// pins the DInt attribute year: a year that differs from the master's
// as bytes but not as an integer ("01996", "+1996") is still covered.
func TestCoversDomainEqualYear(t *testing.T) {
	eng, rows := dblpEngine(t, 60)
	regions := NewFinder(eng).TopK(nil)
	var titleYear *Region
	for _, r := range regions {
		if fmt.Sprint(r.AttrNames()) == "[title year]" {
			titleYear = r
		}
	}
	if titleYear == nil {
		t.Fatalf("no ({title, year}) region in %v", regions)
	}
	sch := eng.InputSchema()
	var tuples []*schema.Tuple
	for _, r := range rows {
		for _, year := range []string{"", "0", "+", "00"} {
			tu := schema.MustTuple(sch, r...)
			tu.Set("key", "unknown")
			tu.Set("year", value.V(year)+r[5])
			tuples = append(tuples, tu)
		}
	}
	checkCoversMatchesScan(t, regions, tuples)
	for _, tu := range tuples {
		if !titleYear.Covers(tu) {
			t.Fatalf("%v does not cover %v", titleYear, tu.Vals)
		}
	}
	// A year equal as bytes to no master year stays uncovered.
	tu := schema.MustTuple(sch, rows[0]...)
	tu.Set("year", "1900")
	if titleYear.Covers(tu) || rowScan(titleYear, tu) {
		t.Fatalf("%v covers %v", titleYear, tu.Vals)
	}
}

// Covers only reads: regions may be probed from many goroutines at
// once (run under -race).
func TestCoversConcurrentReaders(t *testing.T) {
	eng, g, entities := custEngine(t, 3, 200)
	regions := NewFinder(eng).TopK(nil)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		tuples := make([]*schema.Tuple, len(entities))
		for i, e := range entities {
			tuples[i] = g.CleanInput(e)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, tu := range tuples {
				for _, r := range regions {
					if r.Covers(tu) != rowScan(r, tu) {
						t.Errorf("region %v: Covers(%v) differs from the row scan", r, tu.Vals)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkTopK times the whole region precompute on CustomerGen
// masters with the demo rules φ1–φ9, from bench's churn and entry
// sizes up to bulk_fix's 20,000 entities.
func BenchmarkTopK(b *testing.B) {
	for _, n := range []int{100, 500, 2000, 20000} {
		b.Run(fmt.Sprintf("entities=%d", n), func(b *testing.B) {
			eng, _, _ := custEngine(b, 1, n)
			for b.Loop() {
				NewFinder(eng).TopK(nil)
			}
		})
	}
}

// BenchmarkCovers times the monitor's initial-suggestion test: regions
// in rank order until one covers the tuple (hit), and a tuple no
// region covers (miss, every region probed).
func BenchmarkCovers(b *testing.B) {
	for _, n := range []int{100, 500, 1000} {
		eng, g, entities := custEngine(b, 1, n)
		regions := NewFinder(eng).TopK(nil)
		hit := g.CleanInput(entities[n/2])
		miss := hit.Clone()
		miss.Set("zip", "ZZ9 9ZZ")
		miss.Set("phn", "000")
		for _, c := range []struct {
			name string
			tu   *schema.Tuple
			want bool
		}{{"hit", hit, true}, {"miss", miss, false}} {
			b.Run(fmt.Sprintf("%s/entities=%d", c.name, n), func(b *testing.B) {
				covered := false
				for b.Loop() {
					covered = false
					for _, r := range regions {
						if r.Covers(c.tu) {
							covered = true
							break
						}
					}
				}
				if covered != c.want {
					b.Fatalf("covered = %v, want %v", covered, c.want)
				}
			})
		}
	}
}
