package storage

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"cerfix/internal/schema"
	"cerfix/internal/value"
)

// TestSnapshotReadOnly: a snapshot is a frozen view — every append
// is rejected, reads need no locks, and snapshotting a snapshot is
// the identity.
func TestSnapshotReadOnly(t *testing.T) {
	tb := NewTable(personSchema(t))
	id, err := tb.InsertValues("F", "L", "Z1")
	if err != nil {
		t.Fatal(err)
	}
	snap := tb.Snapshot()
	if !snap.Frozen() || tb.Frozen() {
		t.Fatalf("frozen flags: snap %v live %v", snap.Frozen(), tb.Frozen())
	}
	if snap.Snapshot() != snap {
		t.Fatal("snapshot of a snapshot is not the same view")
	}
	if _, err := snap.InsertValues("A", "B", "Z2"); !errors.Is(err, ErrFrozen) {
		t.Fatalf("Insert on snapshot: %v, want ErrFrozen", err)
	}
	if err := snap.ReadCSV(strings.NewReader("FN,LN,zip\nA,B,Z3\n")); !errors.Is(err, ErrFrozen) {
		t.Fatalf("ReadCSV on snapshot: %v, want ErrFrozen", err)
	}
	// The rejected appends disturbed nothing.
	if snap.Len() != 1 || tb.Len() != 1 {
		t.Fatalf("lens: snap %d live %d", snap.Len(), tb.Len())
	}
	if got, _ := snap.Get(id); got.Get("zip") != "Z1" {
		t.Fatalf("snapshot row = %v", got)
	}
}

// TestSnapshotHammer interleaves one appending writer, O(1) snapshot
// captures and concurrent snapshot readers. Under -race this is the
// log's soundness proof: a snapshot of length n holds exactly rows
// 1..n, in order, with the zips that were written — nothing torn,
// nothing from the future — while the writer keeps appending to the
// array the snapshot shares, and then to grown copies of it.
func TestSnapshotHammer(t *testing.T) {
	tb := NewTable(personSchema(t))
	zipOf := func(id int64) value.V { return value.V(fmt.Sprintf("Z%d", id)) }
	insert := func() {
		if _, err := tb.InsertValues("F", "L", zipOf(int64(tb.Len()+1))); err != nil {
			t.Fatal(err)
		}
	}

	const (
		iters   = 1000
		readers = 4
	)
	snaps := make(chan *Table, iters)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for snap := range snaps {
				n := snap.Len()
				next := int64(0)
				snap.ScanShared(func(tu *schema.Tuple) bool {
					next++
					if tu.ID != next || tu.Get("zip") != zipOf(next) {
						t.Errorf("snapshot of %d rows: row %d is id %d zip %q", n, next, tu.ID, tu.Get("zip"))
						return false
					}
					return true
				})
				if next != int64(n) {
					t.Errorf("snapshot of %d rows: scan yielded %d", n, next)
					return
				}
				if row, ok := snap.Get(int64(n)); !ok || row.Get("zip") != zipOf(int64(n)) {
					t.Errorf("snapshot of %d rows: Get(%d) = %v, %v", n, n, row, ok)
					return
				}
				if _, ok := snap.Get(int64(n) + 1); ok {
					t.Errorf("snapshot of %d rows: future row %d visible", n, n+1)
					return
				}
				if row, ok := tb.Get(int64(n) + 1); !ok || row.Get("zip") != zipOf(int64(n)+1) {
					t.Errorf("live table: Get(%d) = %v, %v", n+1, row, ok)
					return
				}
			}
		}()
	}

	// Each snapshot is published only after the row beyond it is
	// stored, so readers can check the live table has it.
	insert()
	first := tb.Snapshot()
	for i := 0; i < iters; i++ {
		snap := tb.Snapshot()
		insert()
		snaps <- snap
	}
	close(snaps)
	wg.Wait()
	// The log outgrew the array the first snapshot captured, which
	// still holds its one row.
	if tb.Len() < 100*cap(first.rows) || &tb.rows[0] == &first.rows[0] {
		t.Fatalf("log of %d rows still shares the first snapshot's array (cap %d)", tb.Len(), cap(first.rows))
	}
	if first.Len() != 1 {
		t.Fatalf("first snapshot Len = %d after the log grew, want 1", first.Len())
	}
}

// TestSnapshotCache: re-snapshotting an unchanged table returns the
// identical frozen view; an append invalidates the cache.
func TestSnapshotCache(t *testing.T) {
	tb := NewTable(personSchema(t))
	if _, err := tb.InsertValues("F", "L", "Z1"); err != nil {
		t.Fatal(err)
	}
	s1 := tb.Snapshot()
	if s2 := tb.Snapshot(); s2 != s1 {
		t.Fatal("unchanged table did not reuse its cached snapshot")
	}
	if _, err := tb.InsertValues("A", "B", "Z2"); err != nil {
		t.Fatal(err)
	}
	s3 := tb.Snapshot()
	if s3 == s1 {
		t.Fatal("append did not invalidate the snapshot cache")
	}
	if s1.Len() != 1 || s3.Len() != 2 {
		t.Fatalf("lens: s1 %d s3 %d", s1.Len(), s3.Len())
	}
}
