package storage

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"cerfix/internal/schema"
	"cerfix/internal/value"
)

// TestSnapshotReadOnly: a snapshot is a frozen view — every mutator
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
	row, _ := snap.Get(id)
	row.Set("zip", "Z9")
	if err := snap.Update(row); !errors.Is(err, ErrFrozen) {
		t.Fatalf("Update on snapshot: %v, want ErrFrozen", err)
	}
	if snap.Delete(id) {
		t.Error("Delete on snapshot reported success")
	}
	// The rejected mutations disturbed nothing.
	if snap.Len() != 1 || tb.Len() != 1 {
		t.Fatalf("lens: snap %d live %d", snap.Len(), tb.Len())
	}
	if got, _ := snap.Get(id); got.Get("zip") != "Z1" {
		t.Fatalf("snapshot row = %v", got)
	}
}

// snapExpect pairs a published snapshot with the writer-side truth at
// capture time.
type snapExpect struct {
	snap    *Table
	wantLen int
	wantGen uint64
	lastZip string // zip of the newest live row
	goneZip string // zip removed (deleted or overwritten) before capture
	nextZip string // zip of a row the writer inserts only after capture
}

// TestSnapshotHammer interleaves one writer (inserts, updates,
// deletes), O(1) snapshot captures, and concurrent snapshot readers.
// Under -race this is the copy-on-write soundness proof: every
// snapshot must see exactly its generation's rows — nothing torn,
// nothing from the future — while the writer keeps touching the
// shared shards.
func TestSnapshotHammer(t *testing.T) {
	tb := NewTable(personSchema(t))

	const (
		iters   = 400
		readers = 4
	)
	snaps := make(chan snapExpect, iters)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for e := range snaps {
				if got := e.snap.Generation(); got != e.wantGen {
					t.Errorf("snapshot generation = %d, want %d", got, e.wantGen)
					return
				}
				if got := e.snap.Len(); got != e.wantLen {
					t.Errorf("gen %d: Len = %d, want %d", e.wantGen, got, e.wantLen)
					return
				}
				// Count each zip over the snapshot's rows; the scan
				// agrees with Len and never surfaces a tombstone.
				count, zips := 0, make(map[value.V]int)
				e.snap.Scan(func(tu *schema.Tuple) bool {
					count++
					zips[tu.Get("zip")]++
					return true
				})
				if n := zips[value.V(e.lastZip)]; n != 1 {
					t.Errorf("gen %d: newest row %q matched %d times", e.wantGen, e.lastZip, n)
					return
				}
				if e.goneZip != "" {
					if n := zips[value.V(e.goneZip)]; n != 0 {
						t.Errorf("gen %d: removed row %q still present (%d hits)", e.wantGen, e.goneZip, n)
						return
					}
				}
				if n := zips[value.V(e.nextZip)]; n != 0 {
					t.Errorf("gen %d: future row %q visible", e.wantGen, e.nextZip)
					return
				}
				if count != e.wantLen {
					t.Errorf("gen %d: Scan yielded %d rows, want %d", e.wantGen, count, e.wantLen)
					return
				}
			}
		}()
	}

	// Single writer; the model (count, gen, zips) is its ground truth.
	var (
		ids   []int64
		zips  []string
		count int
		gen   = tb.Generation()
	)
	for i := 1; i <= iters; i++ {
		zip := fmt.Sprintf("Z%d", i)
		id, err := tb.InsertValues("F", "L", value.V(zip))
		if err != nil {
			t.Fatal(err)
		}
		ids, zips = append(ids, id), append(zips, zip)
		count++
		gen++
		lastZip, goneZip := zip, ""
		if i%3 == 0 {
			// Delete the oldest remaining row (tombstone path).
			if !tb.Delete(ids[0]) {
				t.Fatalf("delete of %d failed", ids[0])
			}
			goneZip = zips[0]
			ids, zips = ids[1:], zips[1:]
			count--
			gen++
		}
		if i%5 == 0 {
			// Rewrite the newest row's zip (update path).
			newZip := zip + "u"
			row, ok := tb.Get(id)
			if !ok {
				t.Fatalf("row %d vanished", id)
			}
			row.Set("zip", value.V(newZip))
			if err := tb.Update(row); err != nil {
				t.Fatal(err)
			}
			goneZip = zip
			zips[len(zips)-1] = newZip
			lastZip = newZip
			gen++
		}
		snaps <- snapExpect{
			snap:    tb.Snapshot(),
			wantLen: count,
			wantGen: gen,
			lastZip: lastZip,
			goneZip: goneZip,
			nextZip: fmt.Sprintf("Z%d", i+1),
		}
	}
	close(snaps)
	wg.Wait()
}

// TestDeleteTombstoneCompaction: deletes tombstone the order slice in
// O(1) and compaction reclaims it, while an earlier snapshot keeps
// the full view.
func TestDeleteTombstoneCompaction(t *testing.T) {
	tb := NewTable(personSchema(t))
	const total, dead = 1000, 900
	ids := make([]int64, 0, total)
	for i := 0; i < total; i++ {
		id, err := tb.InsertValues("F", "L", value.V(fmt.Sprintf("Z%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	snap := tb.Snapshot()
	for i := 0; i < dead; i++ {
		if !tb.Delete(ids[i]) {
			t.Fatalf("delete %d failed", ids[i])
		}
	}
	if tb.Len() != total-dead {
		t.Fatalf("Len = %d, want %d", tb.Len(), total-dead)
	}
	tb.mu.RLock()
	orderLen, tombs := len(tb.order), tb.dead
	tb.mu.RUnlock()
	if orderLen > 3*(total-dead) {
		t.Fatalf("order not compacted: %d slots for %d live rows (%d tombstones)", orderLen, total-dead, tombs)
	}
	// Scan yields exactly the survivors, in insertion order.
	var got []int64
	tb.Scan(func(tu *schema.Tuple) bool { got = append(got, tu.ID); return true })
	if len(got) != total-dead {
		t.Fatalf("scan found %d rows", len(got))
	}
	for i, id := range got {
		if id != ids[dead+i] {
			t.Fatalf("scan order[%d] = %d, want %d", i, id, ids[dead+i])
		}
	}
	// The pre-delete snapshot still sees everything.
	if snap.Len() != total {
		t.Fatalf("snapshot Len = %d after live compaction, want %d", snap.Len(), total)
	}
	n := 0
	snap.Scan(func(*schema.Tuple) bool { n++; return true })
	if n != total {
		t.Fatalf("snapshot scan = %d rows, want %d", n, total)
	}
}

// TestSnapshotCache: re-snapshotting an unchanged table returns the
// identical frozen view (no re-marking, no fresh COW debt); any
// row change invalidates the cache.
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
		t.Fatal("mutation did not invalidate the snapshot cache")
	}
	if s1.Len() != 1 || s3.Len() != 2 {
		t.Fatalf("lens: s1 %d s3 %d", s1.Len(), s3.Len())
	}
}
