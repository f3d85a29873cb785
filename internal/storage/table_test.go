package storage

import (
	"fmt"
	"sync"
	"testing"

	"cerfix/internal/schema"
	"cerfix/internal/value"
)

func personSchema(t *testing.T) *schema.Schema {
	t.Helper()
	return schema.MustNew("PERSON",
		schema.Str("FN"), schema.Str("LN"), schema.Str("zip"))
}

func fill(t *testing.T, tb *Table) []int64 {
	t.Helper()
	rows := [][]value.V{
		{"Robert", "Brady", "EH8 4AH"},
		{"Mark", "Smith", "W1B 1JL"},
		{"Robert", "Luth", "EH8 4AH"},
	}
	var ids []int64
	for _, r := range rows {
		id, err := tb.InsertValues(r...)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	return ids
}

func TestInsertGet(t *testing.T) {
	tb := NewTable(personSchema(t))
	ids := fill(t, tb)
	if tb.Len() != 3 {
		t.Fatalf("Len = %d", tb.Len())
	}
	tu, ok := tb.Get(ids[1])
	if !ok || tu.Get("FN") != "Mark" {
		t.Fatalf("Get = %v, %v", tu, ok)
	}
	if _, ok := tb.Get(999); ok {
		t.Fatal("Get(999) found phantom row")
	}
	// IDs are unique and ascending.
	if !(ids[0] < ids[1] && ids[1] < ids[2]) {
		t.Fatalf("IDs not ascending: %v", ids)
	}
}

// TestScanSharedTail pins the WAL writer's tail-scan contract: for an
// append-only history past minID, ScanSharedTail visits exactly the
// rows ScanShared would visit filtered to id >= minID, in the same
// order — over tombstones too.
func TestScanSharedTail(t *testing.T) {
	tb := NewTable(personSchema(t))
	var ids []int64
	for i := 0; i < 300; i++ {
		id, err := tb.InsertValues(value.V(string(rune('A'+i%26))), "L", "Z")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	tb.Delete(ids[10])
	tb.Delete(ids[250])
	for _, minID := range []int64{ids[0], ids[137], ids[299], ids[299] + 1} {
		var want, got []int64
		tb.ScanShared(func(tu *schema.Tuple) bool {
			if tu.ID >= minID {
				want = append(want, tu.ID)
			}
			return true
		})
		tb.ScanSharedTail(minID, func(tu *schema.Tuple) bool {
			got = append(got, tu.ID)
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("tail scan from %d saw %d rows, want %d", minID, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("tail scan from %d: row %d = id %d, want %d", minID, i, got[i], want[i])
			}
		}
	}
}

func TestInsertCopies(t *testing.T) {
	tb := NewTable(personSchema(t))
	tu := schema.MustTuple(tb.Schema(), "A", "B", "C")
	id, _ := tb.Insert(tu)
	tu.Set("FN", "MUTATED")
	got, _ := tb.Get(id)
	if got.Get("FN") != "A" {
		t.Fatal("Insert did not copy the tuple")
	}
	got.Set("FN", "MUTATED2")
	got2, _ := tb.Get(id)
	if got2.Get("FN") != "A" {
		t.Fatal("Get did not return a copy")
	}
}

func TestInsertSchemaMismatch(t *testing.T) {
	tb := NewTable(personSchema(t))
	other := schema.MustNew("OTHER", schema.Str("x"))
	if _, err := tb.Insert(schema.MustTuple(other, "v")); err == nil {
		t.Fatal("foreign-schema tuple accepted")
	}
	if _, err := tb.InsertValues("too", "few"); err == nil {
		t.Fatal("bad arity accepted")
	}
}

func TestUpdateDelete(t *testing.T) {
	tb := NewTable(personSchema(t))
	ids := fill(t, tb)
	tu, _ := tb.Get(ids[0])
	tu.Set("LN", "Changed")
	if err := tb.Update(tu); err != nil {
		t.Fatal(err)
	}
	got, _ := tb.Get(ids[0])
	if got.Get("LN") != "Changed" {
		t.Fatal("Update lost")
	}
	ghost := tu.Clone()
	ghost.ID = 999
	if err := tb.Update(ghost); err == nil {
		t.Fatal("Update of missing row accepted")
	}
	if !tb.Delete(ids[0]) || tb.Delete(ids[0]) {
		t.Fatal("Delete semantics wrong")
	}
	if tb.Len() != 2 {
		t.Fatalf("Len after delete = %d", tb.Len())
	}
}

func TestScanOrderAndEarlyStop(t *testing.T) {
	tb := NewTable(personSchema(t))
	fill(t, tb)
	var names []string
	tb.Scan(func(tu *schema.Tuple) bool {
		names = append(names, string(tu.Get("FN")))
		return len(names) < 2
	})
	if len(names) != 2 || names[0] != "Robert" || names[1] != "Mark" {
		t.Fatalf("Scan = %v", names)
	}
}

// ScanShared yields the stored rows themselves (no copies) in
// insertion order, honours early stop, and skips tombstones.
func TestScanShared(t *testing.T) {
	tb := NewTable(personSchema(t))
	ids := fill(t, tb)
	var names []string
	tb.ScanShared(func(tu *schema.Tuple) bool {
		names = append(names, string(tu.Get("FN")))
		return len(names) < 2
	})
	if len(names) != 2 || names[0] != "Robert" || names[1] != "Mark" {
		t.Fatalf("ScanShared = %v", names)
	}
	// Identity: the callback sees the stored row, not a clone.
	var seen *schema.Tuple
	tb.ScanShared(func(tu *schema.Tuple) bool {
		if tu.ID == ids[0] {
			seen = tu
			return false
		}
		return true
	})
	stored, _ := tb.Get(ids[0]) // Get clones
	if seen == nil || !seen.Equal(stored) {
		t.Fatal("ScanShared row differs from stored content")
	}
	var again *schema.Tuple
	tb.ScanShared(func(tu *schema.Tuple) bool {
		if tu.ID == ids[0] {
			again = tu
			return false
		}
		return true
	})
	if seen != again {
		t.Fatal("ScanShared copied the row (want the shared instance)")
	}
	// Tombstones are skipped.
	tb.Delete(ids[1])
	count := 0
	tb.ScanShared(func(*schema.Tuple) bool { count++; return true })
	if count != 2 {
		t.Fatalf("ScanShared visited %d rows after delete, want 2", count)
	}
}

func TestSelect(t *testing.T) {
	tb := NewTable(personSchema(t))
	fill(t, tb)
	rob := tb.Select(func(tu *schema.Tuple) bool { return tu.Get("FN") == "Robert" })
	if len(rob) != 2 {
		t.Fatalf("Select = %d rows", len(rob))
	}
	if len(tb.All()) != 3 {
		t.Fatal("All wrong")
	}
}

func TestConcurrentAccess(t *testing.T) {
	tb := NewTable(personSchema(t))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, err := tb.InsertValues("F", "L", "Z"); err != nil {
					t.Error(err)
					return
				}
				tb.Select(func(tu *schema.Tuple) bool { return tu.Get("zip") == "Z" })
				tb.Len()
			}
		}(g)
	}
	wg.Wait()
	if tb.Len() != 800 {
		t.Fatalf("Len = %d after concurrent inserts", tb.Len())
	}
}

func TestMemStatsAccounting(t *testing.T) {
	tb := NewTable(personSchema(t))
	for i := 0; i < 400; i++ {
		if _, err := tb.InsertValues("Robert", value.V(fmt.Sprintf("uniq-%d", i)), ""); err != nil {
			t.Fatal(err)
		}
	}
	m := tb.MemStats()
	if m.Rows != 400 || m.BoxedBytes == 0 {
		t.Fatalf("boxed stats: %+v", m)
	}
	if m.SharedBytes != 0 {
		t.Fatalf("SharedBytes = %d before any snapshot", m.SharedBytes)
	}

	snap := tb.Snapshot()
	m = tb.MemStats()
	if m.SharedBytes != m.BoxedBytes {
		t.Fatalf("after snapshot every shard is shared: %+v", m)
	}

	// A write into a shared shard pays COW debt.
	tu, _ := tb.Get(1)
	tu.Set("FN", "X")
	if err := tb.Update(tu); err != nil {
		t.Fatal(err)
	}
	m = tb.MemStats()
	if m.CowCopied == 0 {
		t.Fatal("COW copy not accounted")
	}
	// The snapshot's own account still reports its shards.
	if sm := snap.MemStats(); sm.BoxedBytes == 0 {
		t.Fatalf("snapshot stats lost its shards: %+v", sm)
	}
}
