// Package storage is the embedded relational substrate that stands in
// for the demo's JDBC data connection. CerFix's data monitor "supports
// several interfaces to access data" (paper §3); this package provides
// the one our build uses: schema-typed tables with auto-assigned row
// IDs, predicate scans, and CSV import/export for persistence. The
// tables keep no secondary index: the access path editing-rule
// lookups need is the master data manager's unique-RHS rule index
// (internal/master), which stores each key's answer, not its rows.
//
// # Snapshots: versioned copy-on-write
//
// Table supports O(1) snapshots. The table's rows are sharded across
// a fixed number of row-map shards, and Snapshot marks every shard
// shared and returns a frozen *Table that references the same
// shards. The cost is proportional to the (constant) shard count,
// never to the number of rows. A writer that later touches a shared
// shard copies just that shard first (copy-on-write), so arbitrarily
// many snapshots coexist with live writes while each keeps the exact
// rows and insertion order of its generation.
// Frozen tables are read-only — mutators return ErrFrozen — and
// immutable, so snapshot readers take no locks at all.
//
// Stored rows are immutable too: Insert and Update store a private
// copy (ReadCSV stores the row it built) and later writes replace the
// row instead of editing it, so a row that a scan or InsertRow hands
// out never changes underneath its reader.
package storage

import (
	"errors"
	"fmt"
	"maps"
	"sort"
	"sync"

	"cerfix/internal/schema"
	"cerfix/internal/value"
)

// ErrFrozen is returned by mutating methods invoked on a read-only
// snapshot (see Table.Snapshot).
var ErrFrozen = errors.New("storage: snapshot is read-only")

// rowShardCount sizes the copy-on-write granularity (a power of two).
// Snapshot cost is O(rowShardCount); the first write into a shard
// after a snapshot copies O(rows/rowShardCount) entries.
const rowShardCount = 64

// rowShard is one segment of the row registry. shared marks the shard
// as referenced by a snapshot: a writer copies it before mutating.
// bytes is the shard's memory account (see rowBoxedCost).
type rowShard struct {
	m      map[int64]*schema.Tuple
	shared bool
	bytes  int64
}

func rowShardOf(id int64) int { return int(uint64(id) & (rowShardCount - 1)) }

// Table is a relation instance. A table created by NewTable is
// mutable and thread-safe; a table returned by Snapshot is a frozen,
// immutable view that any number of goroutines may read without
// synchronization.
type Table struct {
	mu     sync.RWMutex
	sch    *schema.Schema
	frozen bool
	// gen counts mutations (insert/update/delete); snapshots carry
	// the generation they froze at.
	gen   uint64
	rows  [rowShardCount]*rowShard
	count int
	// order holds insertion order of row IDs. Deletes tombstone
	// (the ID stays until compaction; liveness is decided by the row
	// map), so Delete never scans the slice and snapshots can share
	// its backing array: live appends land beyond every snapshot's
	// captured length, and compaction swaps in a fresh array.
	order  []int64
	dead   int
	nextID int64
	// lastSnap caches the most recent snapshot: re-snapshotting an
	// unchanged table (every Scan takes one) returns it outright, so
	// read-heavy phases never re-mark shards or re-tax writers.
	lastSnap *Table
	// cowCopied accumulates the bytes duplicated by copying shared
	// shards (the COW debt already paid).
	cowCopied int64
}

// NewTable creates an empty table under sch.
func NewTable(sch *schema.Schema) *Table {
	t := &Table{sch: sch, nextID: 1}
	for i := range t.rows {
		t.rows[i] = &rowShard{m: make(map[int64]*schema.Tuple)}
	}
	return t
}

// rlock/runlock guard read paths: frozen tables are immutable, so
// their readers skip the mutex entirely.
func (t *Table) rlock() {
	if !t.frozen {
		t.mu.RLock()
	}
}

func (t *Table) runlock() {
	if !t.frozen {
		t.mu.RUnlock()
	}
}

// Schema returns the table's schema.
func (t *Table) Schema() *schema.Schema { return t.sch }

// Frozen reports whether the table is a read-only snapshot.
func (t *Table) Frozen() bool { return t.frozen }

// Generation returns the mutation counter: every insert, update and
// delete increments it. A snapshot's generation tells which version
// of the data it froze.
func (t *Table) Generation() uint64 {
	t.rlock()
	defer t.runlock()
	return t.gen
}

// NextID returns the id the next insert will receive. Ids are
// monotone and never reused, so together with Generation and Len this
// lets the persistence layer prove a window of mutations was
// pure-append: k new inserts move all three counters by exactly k.
func (t *Table) NextID() int64 {
	t.rlock()
	defer t.runlock()
	return t.nextID
}

// Len returns the number of live rows.
func (t *Table) Len() int {
	t.rlock()
	defer t.runlock()
	return t.count
}

// rowHas reports whether a live row exists. Callers hold the read
// lock (or the table is frozen).
func (t *Table) rowHas(id int64) bool {
	_, ok := t.rows[rowShardOf(id)].m[id]
	return ok
}

// rowShardMut returns a privately-owned shard for id, copying a shared
// shard first. Callers hold the write lock.
func (t *Table) rowShardMut(id int64) *rowShard {
	slot := &t.rows[rowShardOf(id)]
	sh := *slot
	if !sh.shared {
		return sh
	}
	// The old shard stays pinned by whichever snapshots froze it: that
	// is the COW debt this write just paid.
	t.cowCopied += sh.bytes
	ns := &rowShard{m: maps.Clone(sh.m), bytes: sh.bytes}
	*slot = ns
	return ns
}

// Snapshot returns a frozen O(1) view of the table: the exact rows
// and insertion order of this generation, immutable forever. The call
// marks the live shards copy-on-write and copies only the
// constant-size shard directory — cost is independent of the number
// of rows. The snapshot needs no locks to read and mutators on
// it return ErrFrozen; the live table keeps absorbing writes, copying
// each touched shard the first time it diverges. Snapshotting a
// snapshot returns the same view.
func (t *Table) Snapshot() *Table {
	if t.frozen {
		return t
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// Unchanged since the last capture (the generation counts every
	// row mutation): hand the same frozen view out again — repeated
	// scans of a quiet table cost nothing and leave no fresh
	// copy-on-write debt.
	if t.lastSnap != nil && t.lastSnap.gen == t.gen {
		return t.lastSnap
	}
	cp := &Table{
		sch:    t.sch,
		frozen: true,
		gen:    t.gen,
		count:  t.count,
		order:  t.order[:len(t.order):len(t.order)],
		dead:   t.dead,
		nextID: t.nextID,
	}
	for i, sh := range &t.rows {
		sh.shared = true
		cp.rows[i] = sh
	}
	t.lastSnap = cp
	return cp
}

// Insert stores a copy of tu, assigns it a fresh ID and returns the ID.
// The tuple must belong to the table's schema.
func (t *Table) Insert(tu *schema.Tuple) (int64, error) {
	row, err := t.InsertRow(tu)
	if err != nil {
		return 0, err
	}
	return row.ID, nil
}

// InsertRow is Insert handing back the stored row itself, ID assigned.
// The row is shared with the table and its snapshots, and immutable
// like every stored row: callers must treat it as read-only. The
// master rule indexes keep it as a key's witness.
func (t *Table) InsertRow(tu *schema.Tuple) (*schema.Tuple, error) {
	if tu.Schema != t.sch {
		return nil, fmt.Errorf("storage: tuple schema %s does not match table schema %s",
			tu.Schema.Name(), t.sch.Name())
	}
	return t.insertOwned(tu.Clone())
}

// insertOwned stores row itself, without a copy: the caller hands it
// over and keeps no reference it would write through. It assigns the
// row a fresh ID and returns it.
func (t *Table) insertOwned(row *schema.Tuple) (*schema.Tuple, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.frozen {
		return nil, ErrFrozen
	}
	row.ID = t.nextID
	t.nextID++
	t.gen++
	sh := t.rowShardMut(row.ID)
	sh.m[row.ID] = row
	sh.bytes += rowBoxedCost(row)
	t.order = append(t.order, row.ID)
	t.count++
	return row, nil
}

// InsertValues is a convenience wrapper building the tuple in place.
func (t *Table) InsertValues(vals ...value.V) (int64, error) {
	tu, err := schema.NewTuple(t.sch, vals...)
	if err != nil {
		return 0, err
	}
	return t.Insert(tu)
}

// Get returns a copy of the row with the given ID.
func (t *Table) Get(id int64) (*schema.Tuple, bool) {
	t.rlock()
	defer t.runlock()
	tu, ok := t.rows[rowShardOf(id)].m[id]
	if !ok {
		return nil, false
	}
	return tu.Clone(), true
}

// Update replaces the row with tu.ID by a copy of tu.
func (t *Table) Update(tu *schema.Tuple) error {
	if tu.Schema != t.sch {
		return fmt.Errorf("storage: tuple schema mismatch")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.frozen {
		return ErrFrozen
	}
	if !t.rowHas(tu.ID) {
		return fmt.Errorf("storage: row %d not found", tu.ID)
	}
	cp := tu.Clone()
	t.gen++
	sh := t.rowShardMut(cp.ID)
	old := sh.m[cp.ID]
	sh.m[cp.ID] = cp
	sh.bytes += rowBoxedCost(cp) - rowBoxedCost(old)
	return nil
}

// Delete removes the row with the given ID, reporting whether a row
// was deleted. The insertion-order slot is tombstoned (liveness lives
// in the row registry), so deletion never scans the order slice;
// compaction reclaims tombstones once they dominate. On a frozen
// snapshot nothing is deleted and Delete reports false, consistent
// with the ErrFrozen contract of the other mutators.
func (t *Table) Delete(id int64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.frozen || !t.rowHas(id) {
		return false
	}
	t.gen++
	sh := t.rowShardMut(id)
	tu := sh.m[id]
	delete(sh.m, id)
	sh.bytes -= rowBoxedCost(tu)
	t.count--
	t.dead++
	t.maybeCompactLocked()
	return true
}

// maybeCompactLocked rebuilds the order slice once tombstones
// dominate it, keeping scans O(live rows) amortized. The fresh
// backing array leaves every snapshot's captured slice untouched.
func (t *Table) maybeCompactLocked() {
	if t.dead < 64 || t.dead*2 < len(t.order) {
		return
	}
	live := make([]int64, 0, t.count)
	for _, id := range t.order {
		if t.rowHas(id) {
			live = append(live, id)
		}
	}
	t.order = live
	t.dead = 0
}

// Scan calls fn on a copy of every row in insertion order; fn
// returning false stops the scan. The scan runs over an O(1)
// snapshot taken up front, so it holds no locks while fn runs, sees
// a single consistent generation, and is never disturbed by (nor
// disturbs) concurrent writers.
func (t *Table) Scan(fn func(*schema.Tuple) bool) {
	t.ScanShared(func(tu *schema.Tuple) bool { return fn(tu.Clone()) })
}

// ScanShared calls fn on the stored rows themselves — no per-row
// copy — in insertion order; fn returning false stops the scan. Like
// Scan it iterates one frozen O(1) snapshot, so it holds no locks and
// sees a single consistent generation. The rows are shared with the
// table and every snapshot of its generation: callers must treat each
// tuple as read-only (Clone one before editing it).
func (t *Table) ScanShared(fn func(*schema.Tuple) bool) {
	snap := t.Snapshot()
	snap.scanIDs(snap.order, fn)
}

// ScanSharedTail is ScanShared restricted to rows with id >= minID.
// Row ids are monotone and inserts append to the insertion-order
// header, so for a pure-append history since minID was observed the
// qualifying rows are a contiguous tail of the order header: the scan
// binary-searches for its start and costs O(log n + matches) instead
// of O(n). Histories where an old id re-enters insertion order after
// a newer one (not produced by any current mutator) would start the
// scan late, so callers must hold the same pure-append evidence the
// WAL writer does.
func (t *Table) ScanSharedTail(minID int64, fn func(*schema.Tuple) bool) {
	snap := t.Snapshot()
	start := sort.Search(len(snap.order), func(i int) bool { return snap.order[i] >= minID })
	snap.scanIDs(snap.order[start:], fn)
}

// scanIDs runs the shared-row scan loop over ids, which must be a
// subslice of the (frozen) receiver's order header.
func (snap *Table) scanIDs(ids []int64, fn func(*schema.Tuple) bool) {
	for _, id := range ids {
		tu, ok := snap.rows[rowShardOf(id)].m[id]
		if !ok {
			continue // tombstoned
		}
		if !fn(tu) {
			return
		}
	}
}

// Select returns copies of all rows satisfying pred, in insertion
// order. A nil predicate selects everything.
func (t *Table) Select(pred func(*schema.Tuple) bool) []*schema.Tuple {
	var out []*schema.Tuple
	t.Scan(func(tu *schema.Tuple) bool {
		if pred == nil || pred(tu) {
			out = append(out, tu)
		}
		return true
	})
	return out
}

// All returns copies of every row in insertion order.
func (t *Table) All() []*schema.Tuple { return t.Select(nil) }

// rowBoxedCost estimates the heap bytes one row pins: the tuple
// struct, its value-header slice, the cell bytes, and the row-map
// entry. It deliberately ignores allocator rounding and string
// sharing between rows — the account is for trend and ratio, not for
// a byte-exact heap profile.
func rowBoxedCost(tu *schema.Tuple) int64 {
	b := int64(48 + 48) // tuple struct (+Vals header) + map entry
	b += int64(len(tu.Vals)) * 16
	for _, v := range tu.Vals {
		b += int64(len(v))
	}
	return b
}

// TableMem is a point-in-time memory account of one table (or
// snapshot). The accounting contract: BoxedBytes is an estimate of
// the heap pinned by the rows, SharedBytes is the portion currently
// referenced by at least one snapshot (copy-on-write debt that a
// write would duplicate), and CowCopiedBytes is the cumulative bytes
// this table has duplicated by copying shared shards — the COW debt
// already paid.
type TableMem struct {
	Rows        int    `json:"rows"`
	BoxedBytes  int64  `json:"boxed_bytes"`
	OrderBytes  int64  `json:"order_bytes"`
	SharedBytes int64  `json:"shared_bytes"`
	CowCopied   int64  `json:"cow_copied_bytes"`
	Generation  uint64 `json:"generation"`
}

// TotalBytes sums the table-owned accounts.
func (m TableMem) TotalBytes() int64 { return m.BoxedBytes + m.OrderBytes }

// MemStats returns the table's memory account.
func (t *Table) MemStats() TableMem {
	t.rlock()
	defer t.runlock()
	out := TableMem{
		Rows:       t.count,
		OrderBytes: int64(len(t.order)) * 8,
		CowCopied:  t.cowCopied,
		Generation: t.gen,
	}
	for _, sh := range &t.rows {
		out.BoxedBytes += sh.bytes
		if sh.shared {
			out.SharedBytes += sh.bytes
		}
	}
	return out
}
