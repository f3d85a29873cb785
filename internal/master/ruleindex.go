package master

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"cerfix/internal/rule"
	"cerfix/internal/schema"
	"cerfix/internal/simd"
	"cerfix/internal/value"
)

// This file implements the unique-RHS rule index, the master data
// manager's access path. The certain-fix lookup of a rule φ asks one
// question per probe key k = t[X]: do all master tuples with s[Xm] = k
// agree on s[Bm], and on what value? Answering it from the group of
// matching rows costs O(|group|) per probe, and for non-key match
// attributes (the demo's φ9 matches on area code, shared by every
// customer of a city) groups grow linearly with master size. The
// query needs each group's answer, not the group itself.
//
// The rule index precomputes the answer per key, once per master
// match list Xm rather than once per rule. Every rule registered with
// the same Xm shares one index over U, the union of their Bm lists. An
// index maps k to an entry built from the first master tuple with
// that key (the witness, in table order): the witness's values on U,
// its ID, and one conflict bit per attribute of U, set once a later
// tuple disagrees with the witness on that attribute. A pair
// (Xm, Bm) reads its answer off the entry: no entry is NoMatch, any
// of Bm's bits set is Conflict, otherwise Unique with the witness's
// values at Bm's positions in U. Tuples agree on a projection iff
// they agree on each of its attributes, so this is exactly the
// per-pair answer. φ1–φ9 match on 4 lists, so 4 indexes serve 9
// rules. U only grows — registering a new Bm attribute appends it —
// so a position a handle has resolved never moves; a schema has at
// most schema.MaxAttrs = 64 attributes, so U's bits fit a uint64.
// Lookups are O(1) regardless of group size. The index is maintained
// incrementally on Store inserts (master data is append-mostly); bulk
// loads that bypass the Store rebuild it via PrepareForRules.
//
// Like the storage layer, the registry is versioned copy-on-write:
// Store.Snapshot marks the registry, every index header and every
// entry shard shared in O(#indexes) — constant in master size — and
// the live store copies only what it touches afterwards. Entries are
// immutable once published (a conflict transition swaps in a fresh
// entry), so snapshot readers never see a torn record.
//
// Synchronization lives entirely in Store.mu: mutators run under its
// write lock, live lookups under its read lock, and frozen snapshots
// are immutable so their readers take no lock at all. ruleIndexes has
// no mutex of its own.

// LookupMode selects the master access path. There are two: the rule
// index serves, and the scan is the reference the parity tests hold
// it to and E5's ablation baseline.
type LookupMode int32

const (
	// ModeRuleIndex uses the precomputed unique-RHS map: O(1) per
	// probe. The default. A pair with no registered index falls back
	// to the scan.
	ModeRuleIndex LookupMode = iota
	// ModeScan scans the relation and verifies RHS agreement over the
	// matching rows: O(|master|) per probe.
	ModeScan
)

// String names the mode.
func (m LookupMode) String() string {
	switch m {
	case ModeRuleIndex:
		return "rule-index"
	case ModeScan:
		return "scan"
	default:
		return "unknown"
	}
}

// rhsEntry is one probe key's precomputed answer for every pair of an
// index. Entries are immutable after publication: snapshots share
// them, so a state change replaces the entry instead of flipping
// fields in place.
type rhsEntry struct {
	vals     value.List // the witness's values on the index's U
	witness  int64
	conflict uint64 // bit i: a later tuple disagrees with the witness on U[i]
}

// entryShardCount sizes the copy-on-write granularity of one rule
// index's entry map (power of two).
const entryShardCount = 64

// entryShard is one copy-on-write segment of a rule index's entry
// map. Once a snapshot marks it shared, the live store copies it
// (mutShard) before the next write; the marked shard itself is then
// immutable forever, so snapshot readers need no synchronization.
type entryShard struct {
	m      map[string]*rhsEntry
	shared bool
}

// mutShard returns a privately-owned shard for the slot: the shard
// itself when no snapshot shares it, otherwise a copy stored back
// through the slot pointer. Callers hold the store's write lock.
func mutShard(slot **entryShard) *entryShard {
	sh := *slot
	if sh.shared {
		sh = &entryShard{m: maps.Clone(sh.m)}
		*slot = sh
	}
	return sh
}

// entryShardOf routes a key to its shard by the FNV-1a hash of its
// bytes. Build and probe both route the key bytes, so a scratch-encoded
// probe key lands on the shard its string form was stored in without
// converting (and allocating) the string.
func entryShardOf(k []byte) int { return int(simd.HashBytes(k) & (entryShardCount - 1)) }

// AppendKey appends one match value to a rule-index key: its length as
// a uvarint, then its bytes. An entry key and a probe key are the
// AppendKey of each Xm value in order, so the index build, its
// lookups and the compiled chase's probes all encode through here.
// The length prefix makes a composite key decode one way: ("12", "3")
// and ("1", "23") are two keys, although their bytes concatenate
// alike.
func AppendKey(dst []byte, v value.V) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	return append(dst, v...)
}

// ruleIndex holds the unique-RHS map of one master match list Xm. The
// header follows the shared/copy-on-write discipline: once a snapshot
// references it, the live store copies the header before replacing
// any shard pointer.
//
// Entry keys are the projected match values themselves (AppendKey).
// Only a master row's values make a key, so a probe key that no row
// carries finds no entry: a certain NoMatch in one map probe.
type ruleIndex struct {
	matchAttrs []string // Xm
	unionAttrs []string // U, in registration order
	matchPos   []int    // schema positions of matchAttrs
	unionPos   []int    // schema positions of unionAttrs
	// keyBytes totals the bytes of the entry keys, kept by add so that
	// MemStats need not walk the keys. It rides along with the header
	// copy, so each snapshot keeps the total of its own entries.
	keyBytes int64
	shared   bool
	shards   [entryShardCount]*entryShard
}

// build fills a fresh index from the rows scan visits, in table order.
func (ix *ruleIndex) build(sch *schema.Schema, scan func(func(*schema.Tuple) bool)) {
	ix.matchPos = make([]int, len(ix.matchAttrs))
	for i, a := range ix.matchAttrs {
		ix.matchPos[i] = sch.MustIndex(a)
	}
	ix.unionPos = make([]int, len(ix.unionAttrs))
	for i, a := range ix.unionAttrs {
		ix.unionPos[i] = sch.MustIndex(a)
	}
	for i := range ix.shards {
		ix.shards[i] = &entryShard{m: make(map[string]*rhsEntry)}
	}
	var buf []byte
	scan(func(s *schema.Tuple) bool {
		buf = ix.add(s, buf)
		return true
	})
}

// add folds one master tuple into the index. It keeps only copies
// (ProjectAt), so s may be a shared scan row or scratch. buf is key
// scratch, returned for reuse.
func (ix *ruleIndex) add(s *schema.Tuple, buf []byte) []byte {
	kb := buf[:0]
	for _, p := range ix.matchPos {
		kb = AppendKey(kb, s.Vals[p])
	}
	sh := mutShard(&ix.shards[entryShardOf(kb)])
	e, ok := sh.m[string(kb)]
	if !ok {
		sh.m[string(kb)] = &rhsEntry{vals: s.ProjectAt(ix.unionPos), witness: s.ID}
		ix.keyBytes += int64(len(kb))
		return kb
	}
	conflict := e.conflict
	for i, p := range ix.unionPos {
		if s.Vals[p] != e.vals[i] {
			conflict |= 1 << uint(i)
		}
	}
	if conflict != e.conflict {
		// Replace, never mutate: snapshots may share the old entry.
		sh.m[string(kb)] = &rhsEntry{vals: e.vals, witness: e.witness, conflict: conflict}
	}
	return kb
}

// get probes a key. The string conversion in the map index expression
// does not allocate (compiler-recognized pattern), so a probe against a
// reused []byte buffer is allocation-free.
func (ix *ruleIndex) get(k []byte) *rhsEntry {
	return ix.shards[entryShardOf(k)].m[string(k)]
}

// rulePair resolves one registered (Xm, Bm) pair: the slot of its
// index in the registry and Bm's positions in that index's U, with
// their bitmask. Immutable once registered: slots and U positions
// never move.
type rulePair struct {
	slot int
	pos  []int
	mask uint64
}

// answer reads the pair's result off a probed entry (nil: no match).
func (p *rulePair) answer(e *rhsEntry) Answer {
	if e == nil {
		return Answer{Status: NoMatch}
	}
	if e.conflict&p.mask != 0 {
		return Answer{Status: Conflict}
	}
	return Answer{Status: Unique, Witness: e.witness, vals: e.vals, pos: p.pos}
}

// ruleIndexes is the Store's registry (separate struct to keep the
// main file focused). All access is synchronized by Store.mu or by
// snapshot immutability.
type ruleIndexes struct {
	// indexes holds one index per Xm, in registration order.
	indexes []*ruleIndex
	// pairs maps HandleKey(Xm, Bm) to the pair's resolution, so a
	// handle binds with one map lookup.
	pairs map[string]*rulePair
	// shared marks the slice and the map as referenced by a snapshot;
	// the live store copies both before the next write.
	shared bool
}

func newRuleIndexes() *ruleIndexes {
	return &ruleIndexes{pairs: make(map[string]*rulePair)}
}

// mut makes the registry's slice and map private, copying them first
// when a snapshot shares them.
func (ri *ruleIndexes) mut() {
	if ri.shared {
		ri.indexes = slices.Clone(ri.indexes)
		ri.pairs = maps.Clone(ri.pairs)
		ri.shared = false
	}
}

// prepare registers every rule's (Xm, Bm) pair and rebuilds, from
// the rows scan visits, the index of every Xm the rules use. An index
// that gains Bm attributes appends them to its U. A rule naming an
// attribute sch lacks is an error, reported before anything is
// registered.
func (ri *ruleIndexes) prepare(sch *schema.Schema, rules []*rule.Rule, scan func(func(*schema.Tuple) bool)) error {
	for _, r := range rules {
		for _, a := range slices.Concat(r.MatchMasterAttrs(), r.SetMasterAttrs()) {
			if !sch.Has(a) {
				return fmt.Errorf("master: rule %s: attribute %q not in master schema %s", r.ID, a, sch.Name())
			}
		}
	}
	ri.mut()
	var rebuild []int
	for _, r := range rules {
		xm, bm := r.MatchMasterAttrs(), r.SetMasterAttrs()
		slot := slices.IndexFunc(ri.indexes, func(ix *ruleIndex) bool { return slices.Equal(ix.matchAttrs, xm) })
		if slot < 0 {
			slot = len(ri.indexes)
			ri.indexes = append(ri.indexes, &ruleIndex{matchAttrs: xm})
		}
		if !slices.Contains(rebuild, slot) {
			// A fresh header, filled below: snapshots keep the old one.
			old := ri.indexes[slot]
			ri.indexes[slot] = &ruleIndex{matchAttrs: old.matchAttrs, unionAttrs: slices.Clip(old.unionAttrs)}
			rebuild = append(rebuild, slot)
		}
		key := HandleKey(xm, bm)
		if _, ok := ri.pairs[key]; ok {
			continue
		}
		ix := ri.indexes[slot]
		p := &rulePair{slot: slot, pos: make([]int, len(bm))}
		for i, a := range bm {
			j := slices.Index(ix.unionAttrs, a)
			if j < 0 {
				j = len(ix.unionAttrs)
				ix.unionAttrs = append(ix.unionAttrs, a)
			}
			p.pos[i] = j
			p.mask |= 1 << uint(j)
		}
		ri.pairs[key] = p
	}
	for _, slot := range rebuild {
		ri.indexes[slot].build(sch, scan)
	}
	return nil
}

// insert maintains every registered index for a new master tuple.
func (ri *ruleIndexes) insert(s *schema.Tuple) {
	if len(ri.indexes) == 0 {
		return
	}
	ri.mut()
	var buf []byte
	for i, ix := range ri.indexes {
		if ix.shared {
			cp := *ix
			cp.shared = false
			ix = &cp
			ri.indexes[i] = ix
		}
		buf = ix.add(s, buf)
	}
}

// snapshot returns a frozen O(1) view: the registry, every index
// header and every entry shard are marked shared, so the live store
// copies only what it subsequently touches.
func (ri *ruleIndexes) snapshot() *ruleIndexes {
	ri.shared = true
	for _, ix := range ri.indexes {
		ix.shared = true
		for _, sh := range &ix.shards {
			sh.shared = true
		}
	}
	return &ruleIndexes{indexes: ri.indexes, pairs: ri.pairs, shared: true}
}

// lookup answers the unique-RHS question for a registered pair; the
// final result reports whether the pair has an index.
func (ri *ruleIndexes) lookup(matchAttrs []string, key value.List, rhsAttrs []string) (value.List, int64, LookupStatus, bool) {
	p, ok := ri.pairs[HandleKey(matchAttrs, rhsAttrs)]
	if !ok {
		return nil, 0, NoMatch, false
	}
	var kb []byte
	for _, v := range key {
		kb = AppendKey(kb, v)
	}
	a := p.answer(ri.indexes[p.slot].get(kb))
	return a.List(), a.Witness, a.Status, true
}

// Answer is one (Xm, Bm) pair's unique-RHS result, read in place from
// an index entry: RHS(i) is the witness's value on the pair's i-th Bm
// attribute, valid when Status is Unique.
type Answer struct {
	Status  LookupStatus
	Witness int64
	vals    value.List
	pos     []int // Bm's positions in vals; nil when vals is Bm-aligned
}

// ListAnswer wraps a UniqueRHS result, whose values are already in Bm
// order, as an Answer.
func ListAnswer(rhs value.List, witness int64, status LookupStatus) Answer {
	return Answer{Status: status, Witness: witness, vals: rhs}
}

// RHS returns the i-th Bm value.
func (a *Answer) RHS(i int) value.V {
	if a.pos == nil {
		return a.vals[i]
	}
	return a.vals[a.pos[i]]
}

// List materializes the Bm values in order (nil unless Unique).
func (a *Answer) List() value.List {
	if a.pos == nil {
		return a.vals
	}
	out := make(value.List, len(a.pos))
	for i := range out {
		out[i] = a.RHS(i)
	}
	return out
}

// Entry is a probed key's entry on one index. Every pair registered
// with that index's Xm reads its own answer from it (RuleHandle.Read),
// so one probe per key serves them all. The zero Entry is a miss.
type Entry struct{ e *rhsEntry }

// RuleHandle is a pre-resolved unique-RHS lookup handle for one
// (Xm, Bm) pair — the compiled chase's direct line to a rule's index.
// On frozen stores (the batch pipeline's and job runners' view) the
// pair — its index's slot and Bm's positions — is resolved at handle
// creation with one registry lookup, so a probe is one shard hash
// plus one map hit with no locking at all. On live stores the handle keeps the pair key and
// re-resolves it under the read lock per call, staying correct across
// copy-on-write registry swaps (Insert after Snapshot replaces shared
// index headers).
type RuleHandle struct {
	store *Store
	key   string
	pair  *rulePair // resolved once when the store is frozen
}

// HandleKey canonicalizes a (Xm, Bm) pair into the registry key a
// RuleHandle resolves by. It depends only on the attribute lists, so
// callers that bind handles repeatedly (the compiled chase binds one
// per rule per Chaser) compute it once and pass it to HandleByKey.
func HandleKey(matchAttrs, rhsAttrs []string) string {
	var b strings.Builder
	for _, a := range matchAttrs {
		b.WriteByte(byte(len(a)))
		b.WriteString(a)
	}
	b.WriteByte(0xff)
	for _, a := range rhsAttrs {
		b.WriteByte(byte(len(a)))
		b.WriteString(a)
	}
	return b.String()
}

// Handle resolves a (Xm, Bm) pair to a lookup handle. The handle is
// valid for the lifetime of the store view it was created from and is
// safe for concurrent use on frozen stores; on live stores each probe
// synchronizes with writers via the store's read lock.
func (m *Store) Handle(matchAttrs, rhsAttrs []string) *RuleHandle {
	h := m.HandleByKey(HandleKey(matchAttrs, rhsAttrs))
	return &h
}

// HandleByKey is Handle for a key prebuilt with HandleKey, skipping
// the per-call key construction. It returns the handle by value so
// callers binding one per rule (every compiled Chaser) fill a slice
// with a single allocation instead of one per handle.
func (m *Store) HandleByKey(key string) RuleHandle {
	h := RuleHandle{store: m, key: key}
	if m.frozen {
		h.pair = m.ruleIdx.pairs[key]
	}
	return h
}

// Probe looks up a composite key (AppendKey of each t[X] value) on the
// pair's index. It returns the entry, which any handle of a pair with
// the same Xm on the same store view may Read, and this pair's answer.
// The final result reports whether a rule index is registered for the
// pair — false means the caller must fall back to the scan
// (Store.UniqueRHS), exactly as an unregistered pair does there.
func (h *RuleHandle) Probe(key []byte) (Entry, Answer, bool) {
	m, p := h.store, h.pair
	if p == nil {
		if m.frozen {
			return Entry{}, Answer{}, false // no index at capture: permanent
		}
		m.mu.RLock()
		defer m.mu.RUnlock()
		if p = m.ruleIdx.pairs[h.key]; p == nil {
			return Entry{}, Answer{}, false
		}
	}
	e := m.ruleIdx.indexes[p.slot].get(key)
	return Entry{e}, p.answer(e), true
}

// Read answers the pair from an entry that Probe returned for a pair
// with the same Xm on the same store view, without probing. The
// final result is Probe's: false means no index is registered.
func (h *RuleHandle) Read(e Entry) (Answer, bool) {
	m, p := h.store, h.pair
	if p == nil && !m.frozen {
		m.mu.RLock()
		p = m.ruleIdx.pairs[h.key]
		m.mu.RUnlock()
	}
	if p == nil {
		return Answer{}, false
	}
	return p.answer(e.e), true
}

// Lookup is Probe returning the answer in the UniqueRHS result shape.
func (h *RuleHandle) Lookup(key []byte) (value.List, int64, LookupStatus, bool) {
	_, a, ok := h.Probe(key)
	return a.List(), a.Witness, a.Status, ok
}

// registered lists the indexes as "Xm->U", sorted, for diagnostics.
func (ri *ruleIndexes) registered() []string {
	out := make([]string, 0, len(ri.indexes))
	for _, ix := range ri.indexes {
		out = append(out, strings.Join(ix.matchAttrs, ",")+"->"+strings.Join(ix.unionAttrs, ","))
	}
	sort.Strings(out)
	return out
}

// PrepareRuleIndexes (re)builds the unique-RHS index of every master
// match list in the rule set, registering each rule's (Xm, Bm) pair.
// It reads the rows in place through the table's shared scan. A rule
// naming an attribute the master schema lacks is an error, and then
// nothing is registered. Called by PrepareForRules; callers that
// mutate the underlying table directly must re-run it.
func (m *Store) PrepareRuleIndexes(rs *rule.Set) error {
	m.lock()
	defer m.unlock()
	if err := m.ruleIdx.prepare(m.table.Schema(), rs.Rules(), m.table.ScanShared); err != nil {
		return err
	}
	m.version++
	return nil
}

// RegisteredRuleIndexes lists the built indexes, one "Xm->U" line per
// master match list (diagnostics).
func (m *Store) RegisteredRuleIndexes() []string {
	m.rlock()
	defer m.runlock()
	return m.ruleIdx.registered()
}
