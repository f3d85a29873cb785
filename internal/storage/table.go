// Package storage is the embedded relational substrate that stands in
// for the demo's JDBC data connection. CerFix's data monitor "supports
// several interfaces to access data" (paper §3); this package provides
// the one our build uses: schema-typed tables with auto-assigned row
// IDs, scans, and CSV import/export for persistence. The tables keep
// no secondary index: the access path editing-rule lookups need is
// the master data manager's unique-RHS rule index (internal/master),
// which stores each key's answer, not its rows.
//
// # An append-only row log
//
// Master data is "assumed consistent and accurate" (paper §2): rows
// are inserted, never rewritten or removed. A Table is therefore an
// append-only log of rows. A row's ID is its position in the log plus
// one, so Get is an index and IDs are dense, monotone and never
// reused; Len serves as the table's version, since only an append
// changes it.
//
// # Snapshots
//
// Snapshot returns a frozen *Table holding the log's prefix as it
// stands, the slice rows[:n:n], in O(1). Later appends land beyond
// every snapshot's length, in the same array or, once it is full, in
// a grown copy, so a snapshot keeps the array it captured and needs
// no copy-on-write. Frozen tables are read-only (Insert returns
// ErrFrozen) and immutable, so snapshot readers take no locks at all.
//
// Stored rows are immutable too: Insert stores a private copy and
// ReadCSV stores the rows it built, so a row that a scan or InsertRow
// hands out never changes underneath its reader.
package storage

import (
	"errors"
	"fmt"
	"sync"

	"cerfix/internal/schema"
	"cerfix/internal/value"
)

// ErrFrozen is returned by Insert and the other appends invoked on a
// read-only snapshot (see Table.Snapshot).
var ErrFrozen = errors.New("storage: snapshot is read-only")

// Table is a relation instance. A table created by NewTable is
// mutable and thread-safe; a table returned by Snapshot is a frozen,
// immutable view that any number of goroutines may read without
// synchronization.
type Table struct {
	mu     sync.RWMutex
	sch    *schema.Schema
	frozen bool
	// rows is the log: the row with ID i is rows[i-1]. Only appends
	// write it, and only beyond every snapshot's length.
	rows []*schema.Tuple
	// bytes is the rows' memory account (see rowBoxedCost).
	bytes int64
	// lastSnap caches the most recent snapshot: re-snapshotting an
	// unchanged table (every Scan takes one) returns it outright.
	lastSnap *Table
}

// NewTable creates an empty table under sch.
func NewTable(sch *schema.Schema) *Table {
	return &Table{sch: sch}
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

// Len returns the number of rows, which is also the ID of the newest.
func (t *Table) Len() int {
	t.rlock()
	defer t.runlock()
	return len(t.rows)
}

// Snapshot returns a frozen O(1) view of the table: the rows stored
// so far, in insertion order, immutable forever. The snapshot needs
// no locks to read and Insert on it returns ErrFrozen; the live table
// keeps absorbing appends, which it never sees. Snapshotting a
// snapshot returns the same view.
func (t *Table) Snapshot() *Table {
	if t.frozen {
		return t
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// No append since the last capture: hand the same frozen view out
	// again, so repeated scans of a quiet table allocate nothing.
	n := len(t.rows)
	if t.lastSnap != nil && len(t.lastSnap.rows) == n {
		return t.lastSnap
	}
	t.lastSnap = &Table{sch: t.sch, frozen: true, rows: t.rows[:n:n], bytes: t.bytes}
	return t.lastSnap
}

// Insert stores a copy of tu, assigns it the next ID and returns the
// ID. The tuple must belong to the table's schema.
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
	row := tu.Clone()
	if err := t.appendOwned([]*schema.Tuple{row}); err != nil {
		return nil, err
	}
	return row, nil
}

// appendOwned appends rows themselves, without a copy, in one step
// under the write lock: the caller hands them over and keeps no
// reference it would write through. It assigns each row its ID.
func (t *Table) appendOwned(rows []*schema.Tuple) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.frozen {
		return ErrFrozen
	}
	for i, row := range rows {
		row.ID = int64(len(t.rows) + i + 1)
		t.bytes += rowBoxedCost(row)
	}
	t.rows = append(t.rows, rows...)
	return nil
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
	if id < 1 || id > int64(len(t.rows)) {
		return nil, false
	}
	return t.rows[id-1].Clone(), true
}

// Scan calls fn on a copy of every row in insertion order; fn
// returning false stops the scan. The scan runs over an O(1)
// snapshot taken up front, so it holds no locks while fn runs, sees
// one consistent prefix of the log, and is never disturbed by (nor
// disturbs) concurrent writers.
func (t *Table) Scan(fn func(*schema.Tuple) bool) {
	t.ScanShared(func(tu *schema.Tuple) bool { return fn(tu.Clone()) })
}

// ScanShared calls fn on the stored rows themselves — no per-row
// copy — in insertion order; fn returning false stops the scan. Like
// Scan it iterates one frozen O(1) snapshot, so it holds no locks and
// sees one consistent prefix of the log. The rows are shared with the
// table and its snapshots: callers must treat each tuple as read-only
// (Clone one before editing it).
func (t *Table) ScanShared(fn func(*schema.Tuple) bool) { t.ScanSharedTail(0, fn) }

// ScanSharedTail is ScanShared after skipping the first skip rows:
// it visits the rows with IDs above skip, in O(1) plus their number.
// A skip at or past Len visits nothing; a negative one counts as 0.
func (t *Table) ScanSharedTail(skip int, fn func(*schema.Tuple) bool) {
	rows := t.Snapshot().rows
	for _, tu := range rows[min(max(skip, 0), len(rows)):] {
		if !fn(tu) {
			return
		}
	}
}

// All returns copies of every row in insertion order.
func (t *Table) All() []*schema.Tuple {
	var out []*schema.Tuple
	t.Scan(func(tu *schema.Tuple) bool {
		out = append(out, tu)
		return true
	})
	return out
}

// rowBoxedCost estimates the heap bytes one row pins: the tuple
// struct, its value-header slice and the cell bytes. It deliberately
// ignores allocator rounding and string sharing between rows — the
// account is for trend and ratio, not for a byte-exact heap profile.
func rowBoxedCost(tu *schema.Tuple) int64 {
	b := int64(48) // tuple struct (+Vals header)
	b += int64(len(tu.Vals)) * 16
	for _, v := range tu.Vals {
		b += int64(len(v))
	}
	return b
}

// TableMem is a point-in-time memory account of one table (or
// snapshot): BoxedBytes estimates the heap pinned by the rows, and
// OrderBytes is the log's array of row pointers. A snapshot keeps the
// account of the prefix it captured.
type TableMem struct {
	Rows       int   `json:"rows"`
	BoxedBytes int64 `json:"boxed_bytes"`
	OrderBytes int64 `json:"order_bytes"`
	// CowCopied always reads 0: no write copies rows since the table
	// became an append-only log. It stays only for the benchmark
	// harness's churn report, which reads it, and is not serialized.
	CowCopied int64 `json:"-"`
}

// TotalBytes sums the table-owned accounts.
func (m TableMem) TotalBytes() int64 { return m.BoxedBytes + m.OrderBytes }

// MemStats returns the table's memory account.
func (t *Table) MemStats() TableMem {
	t.rlock()
	defer t.runlock()
	return TableMem{
		Rows:       len(t.rows),
		BoxedBytes: t.bytes,
		OrderBytes: int64(len(t.rows)) * 8,
	}
}
