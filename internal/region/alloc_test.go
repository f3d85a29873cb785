//go:build !race

package region

import "testing"

// TestTopKAllocs: the region precompute allocates a bounded number of
// times per master entity. Each (cell, Z) builds its plan once, and a
// master row then costs a chase on one reused chaser plus, when the
// row is kept, its own condition slice and its share of the tableau's
// growth. Formatting a junk probe, a fresh satisfiability test or
// chase result, or the string form of each row would cost hundreds per
// entity. Excluded under the race detector, whose instrumentation
// allocates.
func TestTopKAllocs(t *testing.T) {
	const entities, perEntity = 2000, 40
	eng, _, _ := custEngine(t, 1, entities)
	f := NewFinder(eng)
	allocs := testing.AllocsPerRun(3, func() { f.TopK(nil) })
	t.Logf("%.0f allocs per TopK at %d entities, %.1f per entity", allocs, entities, allocs/entities)
	if allocs > perEntity*entities {
		t.Fatalf("TopK at %d entities allocates %.0f times, more than %d per entity", entities, allocs, perEntity)
	}
}
