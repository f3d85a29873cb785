package storage

import (
	"fmt"
	"reflect"
	"testing"

	"cerfix/internal/schema"
	"cerfix/internal/value"
)

// dumpRows captures a full table scan as (id, values) pairs — the
// byte-level fingerprint the packed representation must reproduce.
func dumpRows(t *Table) []string {
	var out []string
	t.Scan(func(tu *schema.Tuple) bool {
		out = append(out, fmt.Sprintf("%d|%v", tu.ID, tu.Vals))
		return true
	})
	return out
}

// fillVaried inserts n rows mixing repeated pool values, unique
// values, and nulls — every representation case the packer handles.
func fillVaried(t *testing.T, tb *Table, n int) []int64 {
	t.Helper()
	pool := []value.V{"Robert", "Mark", "", "Luth", "W1B 1JL"}
	ids := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		id, err := tb.InsertValues(
			pool[i%len(pool)],
			value.V(fmt.Sprintf("uniq-%d", i)),
			pool[(i/2)%len(pool)],
		)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	return ids
}

// TestPackedScanByteIdentical is the satellite parity check: packing
// frozen shards into columnar form must not change a single byte of
// what scans, gets and selections observe — on the live table, on
// snapshots taken before the pack, and on snapshots taken after.
func TestPackedScanByteIdentical(t *testing.T) {
	tb := NewTable(personSchema(t))
	ids := fillVaried(t, tb, 500)
	// Delete a few rows so packed shards carry tombstoned order slots.
	for _, id := range []int64{ids[10], ids[333]} {
		if !tb.Delete(id) {
			t.Fatalf("delete %d", id)
		}
	}
	before := dumpRows(tb)
	preSnap := tb.Snapshot()
	preDump := dumpRows(preSnap)

	tb.SetPackMinRows(1)
	if packed := tb.PackColumnar(0); packed == 0 {
		t.Fatal("PackColumnar packed nothing")
	}
	var packedShards int
	for _, sh := range &tb.rows {
		if sh.col != nil {
			packedShards++
		}
	}
	if packedShards == 0 {
		t.Fatal("no shard is in columnar form after pack")
	}

	if got := dumpRows(tb); !reflect.DeepEqual(got, before) {
		t.Fatalf("live scan changed after pack:\n got %v\nwant %v", got[:3], before[:3])
	}
	if got := dumpRows(preSnap); !reflect.DeepEqual(got, preDump) {
		t.Fatal("pre-pack snapshot changed after pack")
	}
	postSnap := tb.Snapshot()
	if got := dumpRows(postSnap); !reflect.DeepEqual(got, before) {
		t.Fatal("post-pack snapshot disagrees with pre-pack live scan")
	}
	if postSnap == preSnap {
		t.Fatal("pack did not invalidate the cached snapshot")
	}

	// Point reads and selections agree with the boxed layout.
	for _, id := range []int64{ids[0], ids[77], ids[499]} {
		tu, ok := tb.Get(id)
		if !ok {
			t.Fatalf("Get(%d) lost a row", id)
		}
		if tu.ID != id {
			t.Fatalf("Get(%d) returned ID %d", id, tu.ID)
		}
	}
	if _, ok := tb.Get(ids[10]); ok {
		t.Fatal("deleted row resurfaced from packed shard")
	}
	got := tb.Select(func(tu *schema.Tuple) bool { return tu.Get("FN") == "Robert" })
	want := 0
	preSnap.Scan(func(tu *schema.Tuple) bool {
		if tu.Get("FN") == "Robert" {
			want++
		}
		return true
	})
	if len(got) != want {
		t.Fatalf("Select(FN=Robert) = %d rows, want %d", len(got), want)
	}
}

// TestPackedShardCOW: writes into a packed shard unpack a private map
// copy; snapshots holding the packed block never observe the write.
func TestPackedShardCOW(t *testing.T) {
	tb := NewTable(personSchema(t))
	ids := fillVaried(t, tb, 200)
	tb.SetPackMinRows(1)
	tb.PackColumnar(0)
	snap := tb.Snapshot()
	snapDump := dumpRows(snap)

	// Update through a packed shard.
	tu, _ := tb.Get(ids[5])
	tu.Set("LN", "rewritten")
	if err := tb.Update(tu); err != nil {
		t.Fatal(err)
	}
	if !tb.Delete(ids[6]) {
		t.Fatal("delete through packed shard failed")
	}
	if _, err := tb.InsertValues("New", "Row", "zip"); err != nil {
		t.Fatal(err)
	}

	if got := dumpRows(snap); !reflect.DeepEqual(got, snapDump) {
		t.Fatal("snapshot observed writes that unpacked its shards")
	}
	got, _ := tb.Get(ids[5])
	if got.Get("LN") != "rewritten" {
		t.Fatalf("update lost: LN = %q", got.Get("LN"))
	}
	if _, ok := tb.Get(ids[6]); ok {
		t.Fatal("delete lost after unpack")
	}
}

func TestPackRespectsMinRows(t *testing.T) {
	tb := NewTable(personSchema(t))
	fillVaried(t, tb, 100) // ~1.5 rows per shard, below any sane threshold
	if packed := tb.PackColumnar(0); packed != 0 {
		t.Fatalf("packed %d shards below the default threshold", packed)
	}
	gen := tb.Generation()
	if tb.PackColumnar(0) != 0 {
		t.Fatal("second no-op pack packed shards")
	}
	if tb.Generation() != gen {
		t.Fatal("no-op pack bumped the generation")
	}
}

func TestMemStatsAccounting(t *testing.T) {
	tb := NewTable(personSchema(t))
	fillVaried(t, tb, 400)
	m := tb.MemStats()
	if m.Rows != 400 || m.BoxedBytes == 0 || m.PackedBytes != 0 {
		t.Fatalf("boxed stats: %+v", m)
	}
	if m.SharedBytes != 0 {
		t.Fatalf("SharedBytes = %d before any snapshot", m.SharedBytes)
	}

	snap := tb.Snapshot()
	m = tb.MemStats()
	if m.SharedBytes != m.BoxedBytes+m.PackedBytes {
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

	tb.SetPackMinRows(1)
	tb.PackColumnar(0)
	m2 := tb.MemStats()
	if m2.PackedShards == 0 || m2.PackedRows == 0 || m2.PackedBytes == 0 {
		t.Fatalf("pack stats: %+v", m2)
	}
	if m2.BoxedBytes != 0 {
		t.Fatalf("BoxedBytes = %d after full pack", m2.BoxedBytes)
	}
	if m2.PackedBytes >= m.BoxedBytes {
		t.Fatalf("packing did not shrink the account: boxed %d → packed %d",
			m.BoxedBytes, m2.PackedBytes)
	}
	if m2.Dict.Syms == 0 {
		t.Fatal("dictionary empty after pack")
	}
	// The snapshot's own account still reports its boxed shards.
	sm := snap.MemStats()
	if sm.BoxedBytes == 0 {
		t.Fatalf("snapshot stats lost its boxed shards: %+v", sm)
	}
}
