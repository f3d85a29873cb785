package storage

import (
	"encoding/json"
	"fmt"
	"strings"
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
	for _, id := range []int64{999, 0, -1, int64(tb.Len()) + 1} {
		if _, ok := tb.Get(id); ok {
			t.Fatalf("Get(%d) found phantom row", id)
		}
	}
	// A row's ID is its position in the log plus one.
	for i, id := range ids {
		if id != int64(i+1) {
			t.Fatalf("IDs = %v, want 1, 2, 3", ids)
		}
	}
}

// TestScanSharedTail pins the tail-scan contract the WAL writer and
// the master listing rely on: skipping k rows visits exactly the rows
// ScanShared visits after its first k, in the same order, and a skip
// at or past the end visits nothing.
func TestScanSharedTail(t *testing.T) {
	tb := NewTable(personSchema(t))
	for i := 0; i < 300; i++ {
		if _, err := tb.InsertValues(value.V(string(rune('A'+i%26))), "L", "Z"); err != nil {
			t.Fatal(err)
		}
	}
	var all []int64
	tb.ScanShared(func(tu *schema.Tuple) bool {
		all = append(all, tu.ID)
		return true
	})
	for _, skip := range []int{0, 137, 299, 300, 301} {
		want := all[min(skip, len(all)):]
		var got []int64
		tb.ScanSharedTail(skip, func(tu *schema.Tuple) bool {
			got = append(got, tu.ID)
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("tail scan skipping %d saw %d rows, want %d", skip, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("tail scan skipping %d: row %d = id %d, want %d", skip, i, got[i], want[i])
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
// insertion order and honours early stop.
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
}

func TestSelect(t *testing.T) {
	tb := NewTable(personSchema(t))
	fill(t, tb)
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
				tb.All()
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
	if m.Rows != 400 || m.BoxedBytes == 0 || m.OrderBytes != 400*8 {
		t.Fatalf("stats: %+v", m)
	}

	// A snapshot keeps the account of the prefix it captured while the
	// live table grows past it.
	snap := tb.Snapshot()
	if _, err := tb.InsertValues("Mark", "late", ""); err != nil {
		t.Fatal(err)
	}
	if sm := snap.MemStats(); sm != m {
		t.Fatalf("snapshot stats = %+v, want the captured %+v", sm, m)
	}
	if live := tb.MemStats(); live.Rows != 401 || live.BoxedBytes <= m.BoxedBytes {
		t.Fatalf("live stats after an append: %+v", live)
	}
	// CowCopied, always 0, is not reported.
	if data, _ := json.Marshal(m); strings.Contains(string(data), "cow") {
		t.Fatalf("account reports copy-on-write bytes: %s", data)
	}
}
