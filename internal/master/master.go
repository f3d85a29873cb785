// Package master implements CerFix's master data manager. Master data
// (a.k.a. reference data) is "a single repository of high-quality data
// ... assumed consistent and accurate" (paper §2). The manager wraps a
// storage table and exposes the unique-right-hand-side lookup that the
// certain-fix semantics requires: a fix is only certain if every master
// tuple matching the key agrees on the source values. That lookup is
// precomputed per key in one unique-RHS index per master match list
// Xm, shared by every rule with that Xm (ruleindex.go): each rule reads
// its own Bm off the shared entry, so the chase probes a key once for
// all rules that match it the same way. The rule index is the one
// access path production reads; the scan (ModeScan) answers the same
// question from the rows and is the reference the tests hold it to.
//
// An index entry is one slot of a flat open-addressing table: the
// key's hash, its witness row (the first stored row with the key) and
// conflict bits. It keeps no key bytes and no values: the table
// underneath is an append-only log of plain rows (package storage), so
// no stored row ever changes, and a probe compares the tuple's values
// with the witness's and reads the answer off the witness. The one
// write that can bypass the indexes is a bulk append through
// Store.Table (ReadCSV), which must be followed by PrepareForRules.
package master

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cerfix/internal/rule"
	"cerfix/internal/schema"
	"cerfix/internal/storage"
	"cerfix/internal/value"
)

// LookupStatus classifies a unique-RHS lookup outcome.
type LookupStatus int

const (
	// NoMatch means no master tuple carries the key.
	NoMatch LookupStatus = iota
	// Unique means at least one tuple matched and all agree on the
	// requested source attributes — the fix is certain.
	Unique
	// Conflict means matching tuples disagree on a source attribute;
	// applying the rule would not yield a unique fix.
	Conflict
)

// String names the status for diagnostics.
func (s LookupStatus) String() string {
	switch s {
	case NoMatch:
		return "no-match"
	case Unique:
		return "unique"
	case Conflict:
		return "conflict"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Store is the master data manager. A store built by New is live and
// thread-safe: its own mutex serializes mutators with Snapshot, so a
// snapshot is always an atomic view of table plus rule indexes — no
// caller-side locking required. A store returned by Snapshot is a
// frozen read-only view that any number of goroutines read without
// synchronization.
type Store struct {
	// mu serializes mutators (Insert, PrepareForRules) with Snapshot
	// on the live store and guards live rule-index lookups against
	// them. Frozen stores are immutable and skip it.
	mu     sync.RWMutex
	frozen bool
	table  *storage.Table
	// mode selects the lookup access path; see LookupMode. It is an
	// atomic so mode flips (the E5 ablation knob, SetMode) are
	// race-free against concurrent lookups, on live stores and
	// snapshots alike — the mode is a per-view knob, not data.
	mode atomic.Int32
	// ruleIdx holds the precomputed unique-RHS maps.
	ruleIdx *ruleIndexes
	// version counts rule-index mutations (Insert, PrepareRuleIndexes);
	// together with the table snapshot identity it keys the snapshot
	// cache below.
	version uint64
	// snapRuleIdx/snapTable/snapVersion cache the frozen internals of
	// the most recent snapshot: an unchanged store reuses them instead
	// of re-marking shards. Each Snapshot call still returns a fresh
	// *Store wrapper with its own mode atomic, so the per-view SetMode
	// contract holds even when the underlying data is shared.
	snapRuleIdx *ruleIndexes
	snapTable   *storage.Table
	snapVersion uint64
}

// New wraps an empty master relation under sch.
func New(sch *schema.Schema) *Store {
	m := &Store{table: storage.NewTable(sch), ruleIdx: newRuleIndexes()}
	m.mode.Store(int32(ModeRuleIndex))
	return m
}

// lock/unlock guard mutators; rlock/runlock guard live readers of the
// rule indexes. Frozen stores are immutable: readers skip the mutex
// and mutators must never run (callers check frozen first).
func (m *Store) lock() {
	if m.frozen {
		panic("master: mutating a read-only snapshot")
	}
	m.mu.Lock()
}

func (m *Store) unlock() { m.mu.Unlock() }

func (m *Store) rlock() {
	if !m.frozen {
		m.mu.RLock()
	}
}

func (m *Store) runlock() {
	if !m.frozen {
		m.mu.RUnlock()
	}
}

// Snapshot returns a frozen O(1) view of the store: the table and the
// unique-RHS rule indexes of this instant, captured atomically under
// the store's own lock — callers need no external serialization with
// writers. The snapshot is immutable (mutators fail with
// storage.ErrFrozen) and lock-free to read, so any number of
// goroutines — the batch pipeline's workers, concurrent job runners —
// chase against it while the live store keeps absorbing inserts. Cost
// is independent of master size: the table hands out a prefix of its
// row log (see storage.Table) and the rule-index registry marks its
// constant-size shard directories copy-on-write. Snapshotting a
// snapshot returns the same view. The snapshot inherits the live
// store's lookup mode at capture; its mode remains independently
// settable (a per-view knob).
func (m *Store) Snapshot() *Store {
	if m.frozen {
		return m
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	tsnap := m.table.Snapshot()
	// Re-freeze the rule indexes only when something changed since the
	// last capture: a different table snapshot (the table caches by
	// length, covering direct-table bulk appends too) or a new
	// rule-index version. Otherwise the previous frozen view is
	// bit-for-bit current and re-marking shards would only re-tax
	// writers.
	if m.snapRuleIdx == nil || m.snapTable != tsnap || m.snapVersion != m.version {
		m.snapRuleIdx = m.ruleIdx.snapshot()
		m.snapTable = tsnap
		m.snapVersion = m.version
	}
	// A fresh wrapper per call: callers own their view's mode knob
	// even when the frozen data underneath is shared.
	cp := &Store{
		frozen:  true,
		table:   tsnap,
		ruleIdx: m.snapRuleIdx,
	}
	cp.mode.Store(m.mode.Load())
	return cp
}

// Frozen reports whether the store is a read-only snapshot.
func (m *Store) Frozen() bool { return m.frozen }

// Schema returns the master schema.
func (m *Store) Schema() *schema.Schema { return m.table.Schema() }

// Table exposes the underlying table (for CSV I/O and the server).
// The table only appends, so no stored row can change underneath the
// rule indexes. The one write that bypasses them is a bulk append
// (ReadCSV), which must be followed by PrepareForRules and serialized
// with Snapshot by the caller, as System.LoadMasterCSV does; the
// Store-level mutators need no such care.
func (m *Store) Table() *storage.Table { return m.table }

// Len returns the number of master tuples.
func (m *Store) Len() int { return m.table.Len() }

// SetMode selects the lookup access path. Safe to call concurrently
// with lookups; on a snapshot it retargets only that view.
func (m *Store) SetMode(mode LookupMode) { m.mode.Store(int32(mode)) }

// Mode returns the current access path.
func (m *Store) Mode() LookupMode { return LookupMode(m.mode.Load()) }

// Insert adds a master tuple and maintains the rule indexes. The
// table row and its index entries become visible atomically: a
// concurrent Snapshot sees either both or neither.
func (m *Store) Insert(tu *schema.Tuple) (int64, error) {
	if m.frozen {
		return 0, storage.ErrFrozen
	}
	m.lock()
	defer m.unlock()
	row, err := m.table.InsertRow(tu)
	if err != nil {
		return 0, err
	}
	// The indexes keep the table's own copy as a new key's witness.
	m.ruleIdx.insert(row)
	m.version++
	return row.ID, nil
}

// InsertValues adds a master tuple from values.
func (m *Store) InsertValues(vals ...value.V) (int64, error) {
	tu, err := schema.NewTuple(m.table.Schema(), vals...)
	if err != nil {
		return 0, err
	}
	return m.Insert(tu)
}

// All returns every master tuple.
func (m *Store) All() []*schema.Tuple { return m.table.All() }

// Get returns the master tuple with the given ID.
func (m *Store) Get(id int64) (*schema.Tuple, bool) { return m.table.Get(id) }

// PrepareForRules builds one unique-RHS index per distinct master
// match list across the rule set and registers every rule's (Xm, Bm)
// pair on it, so every rule's lookup is O(1) expected. Must be re-run
// after adding rules (extra runs are idempotent). A rule naming an
// attribute the master schema lacks is an error.
func (m *Store) PrepareForRules(rs *rule.Set) error {
	if m.frozen {
		return fmt.Errorf("master: PrepareForRules: %w", storage.ErrFrozen)
	}
	return m.PrepareRuleIndexes(rs)
}

// Lookup returns copies of all master tuples whose attrs project to
// key, by a scan. Attribute positions are resolved once up front and
// every row compares in place over the shared-scan iterator, so the
// per-row cost is a few value comparisons — not a tuple clone plus a
// projection allocation.
func (m *Store) Lookup(attrs []string, key value.List) []*schema.Tuple {
	if len(attrs) != len(key) {
		return nil
	}
	sch := m.table.Schema()
	positions := make([]int, len(attrs))
	for i, a := range attrs {
		positions[i] = sch.MustIndex(a)
	}
	var out []*schema.Tuple
	m.table.ScanShared(func(tu *schema.Tuple) bool {
		for i, p := range positions {
			if tu.Vals[p] != key[i] {
				return true
			}
		}
		out = append(out, tu.Clone())
		return true
	})
	return out
}

// UniqueRHS performs the certain-fix lookup for one rule application:
// find master tuples with matchAttrs = key; if none, return NoMatch; if
// all agree on rhsAttrs, return those values, the witness tuple's ID
// and Unique; otherwise Conflict.
func (m *Store) UniqueRHS(matchAttrs []string, key value.List, rhsAttrs []string) (value.List, int64, LookupStatus) {
	if m.Mode() == ModeRuleIndex {
		m.rlock()
		rhs, witness, status, ok := m.ruleIdx.lookup(matchAttrs, key, rhsAttrs)
		m.runlock()
		if ok {
			return rhs, witness, status
		}
		// No index for this pair (ad-hoc query): fall through to the
		// scan.
	}
	matches := m.Lookup(matchAttrs, key)
	if len(matches) == 0 {
		return nil, 0, NoMatch
	}
	rhs := matches[0].Project(rhsAttrs)
	witness := matches[0].ID
	for _, tu := range matches[1:] {
		if !tu.Project(rhsAttrs).Equal(rhs) {
			return nil, 0, Conflict
		}
	}
	return rhs, witness, Unique
}

// UniqueRHSForRule is UniqueRHS specialized to a rule: the key is the
// input tuple's projection on X, matched against Xm, sourcing Bm.
func (m *Store) UniqueRHSForRule(r *rule.Rule, input *schema.Tuple) (value.List, int64, LookupStatus) {
	key := input.Project(r.MatchInputAttrs())
	return m.UniqueRHS(r.MatchMasterAttrs(), key, r.SetMasterAttrs())
}

// MemStats is the store's memory account: the table's (rows and their
// pointer log) and the unique-RHS rule indexes'.
type MemStats struct {
	Table storage.TableMem `json:"table"`
	// RuleIndexKeys counts entries across all rule indexes (one per
	// key per master match list); RuleIndexBytes is the size of their
	// slot tables, empty slots included. Those are the indexes' only
	// per-key memory: a slot points at its witness row, which the
	// table owns.
	RuleIndexKeys  int   `json:"rule_index_keys"`
	RuleIndexBytes int64 `json:"rule_index_bytes"`
}

// TotalBytes sums the account.
func (s MemStats) TotalBytes() int64 {
	return s.Table.TotalBytes() + s.RuleIndexBytes
}

// MemStats returns the store's memory account. It reads each shard's
// key count and table length, never the slots.
func (m *Store) MemStats() MemStats {
	m.rlock()
	defer m.runlock()
	out := MemStats{Table: m.table.MemStats()}
	for _, ix := range m.ruleIdx.indexes {
		for _, sh := range &ix.shards {
			out.RuleIndexKeys += sh.n
			out.RuleIndexBytes += int64(len(sh.slots)) * slotBytes
		}
	}
	return out
}

// Stats summarizes the store for the web interface and CLIs.
type Stats struct {
	// Tuples is the number of master tuples.
	Tuples int
	// Attributes is the master schema width.
	Attributes int
	// Schema is the schema's display form.
	Schema string
}

// Stats returns a snapshot summary.
func (m *Store) Stats() Stats {
	return Stats{
		Tuples:     m.table.Len(),
		Attributes: m.table.Schema().Len(),
		Schema:     m.table.Schema().String(),
	}
}
