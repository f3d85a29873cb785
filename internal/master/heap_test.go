//go:build !race

// External test package: the customer generator builds its master
// through this package, so an internal test could not import it.
package master_test

import (
	"runtime"
	"testing"

	"cerfix/internal/dataset"
)

// TestRuleIndexHeapObjects pins the flat layout's point: a rule index
// holds no per-key heap object, so building φ1–φ9's four indexes adds
// the same number of live heap objects, within one per shard, at 1,000
// and at 20,000 entities. A per-key layout adds about three per key
// (181,126 at 20,000 entities). Guarded out under the race detector,
// whose instrumentation allocates.
func TestRuleIndexHeapObjects(t *testing.T) {
	built := func(entities int) int64 {
		st, err := dataset.MasterStore(dataset.NewCustomerGen(42).GenerateEntities(entities))
		if err != nil {
			t.Fatal(err)
		}
		before := liveObjects()
		if err := st.PrepareForRules(dataset.DemoRules()); err != nil {
			t.Fatal(err)
		}
		after := liveObjects()
		if n := len(st.RegisteredRuleIndexes()); n != 4 {
			t.Fatalf("%d indexes, want 4", n)
		}
		runtime.KeepAlive(st)
		return int64(after) - int64(before)
	}
	small, large := built(1000), built(20000)
	t.Logf("heap objects added by the index build: %d at 1,000 entities, %d at 20,000", small, large)
	// One per shard of each index covers a shard whose first table
	// the larger master fills but the smaller one leaves unallocated.
	const slack = 4 * 64
	if d := large - small; d > slack || d < -slack {
		t.Fatalf("index build adds %d heap objects at 20,000 entities, %d at 1,000: more than %d apart", large, small, slack)
	}
}

// liveObjects counts the live heap objects after a full collection.
func liveObjects() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapObjects
}
