package master

import (
	"sort"
	"strings"

	"cerfix/internal/cowmap"
	"cerfix/internal/rule"
	"cerfix/internal/schema"
	"cerfix/internal/value"
)

// This file implements the unique-RHS rule index, the master data
// manager's fast path. The certain-fix lookup of a rule φ asks one
// question per probe key k = t[X]: do all master tuples with s[Xm] = k
// agree on s[Bm], and on what value? A plain hash index answers it in
// O(|group|) by materializing the group; for non-key match attributes
// (the demo's φ9 matches on area code, shared by every customer of a
// city) groups grow linearly with master size and dominate fix
// latency (benchmark E5's plain-index column shows this).
//
// The rule index precomputes the answer per key: a map from k to
// either the agreed RHS values plus a witness tuple ID, or a conflict
// marker. Lookups become O(1) regardless of group size. The index is
// maintained incrementally on Store inserts (master data is
// append-mostly); bulk loads that bypass the Store rebuild it via
// PrepareForRules.
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

// LookupMode selects the master access path (E5's ablation knob).
type LookupMode int32

const (
	// ModeRuleIndex uses the precomputed unique-RHS map: O(1) per
	// probe. The default.
	ModeRuleIndex LookupMode = iota
	// ModePlainIndex uses the storage hash index and verifies RHS
	// agreement per probe: O(|key group|).
	ModePlainIndex
	// ModeScan performs full relation scans: O(|master|).
	ModeScan
)

// String names the mode.
func (m LookupMode) String() string {
	switch m {
	case ModeRuleIndex:
		return "rule-index"
	case ModePlainIndex:
		return "plain-index"
	case ModeScan:
		return "scan"
	default:
		return "unknown"
	}
}

// rhsEntry is the per-key precomputed answer. Entries are immutable
// after publication: snapshots share them, so a state change replaces
// the entry instead of flipping fields in place.
type rhsEntry struct {
	rhs      value.List
	witness  int64
	conflict bool
}

// entryShardCount sizes the copy-on-write granularity of one rule
// index's entry map (power of two).
const entryShardCount = 64

// entryShard is one segment of a rule index's entry map (see cowmap
// for the shared/copy-on-write discipline).
type entryShard = cowmap.Shard[string, *rhsEntry]

// entryShardOf routes a probe key to its shard. entryShardOfBytes is
// its byte-slice sibling and MUST agree with it byte for byte:
// indexes are built with string keys and probed with scratch-encoded
// []byte keys, so divergent routing would silently read the wrong
// shard (NoMatch for a present key).
func entryShardOf(k string) int { return cowmap.FNV(k, entryShardCount) }

func entryShardOfBytes(k []byte) int { return cowmap.FNVBytes(k, entryShardCount) }

// ruleIndex holds one (Xm, Bm) unique-RHS map. The header follows the
// shared/copy-on-write discipline: once a snapshot references it, the
// live store copies the header before replacing any shard pointer.
//
// Entry keys are sym-encoded: the fixed-width dictionary ids of the
// projected match values (value.AppendSym), 4 bytes per attribute
// instead of a length-prefixed copy of every string. Build and probe
// sides MUST use the same dictionary — the store's table dictionary —
// and the encoding makes the dictionary a sound prefilter: every key
// in the index interned its values at add time, so a probe value the
// dictionary has never seen cannot match any key (a certain NoMatch).
type ruleIndex struct {
	matchAttrs []string
	rhsAttrs   []string
	matchPos   []int // schema positions of matchAttrs
	shared     bool
	shards     [entryShardCount]*entryShard
}

func newRuleIndex(sch *schema.Schema, matchAttrs, rhsAttrs []string) *ruleIndex {
	ix := &ruleIndex{
		matchAttrs: append([]string(nil), matchAttrs...),
		rhsAttrs:   append([]string(nil), rhsAttrs...),
		matchPos:   make([]int, len(matchAttrs)),
	}
	for i, a := range matchAttrs {
		ix.matchPos[i] = sch.MustIndex(a)
	}
	for i := range ix.shards {
		ix.shards[i] = cowmap.New[string, *rhsEntry]()
	}
	return ix
}

// shardMut returns a privately-owned entry shard for key k.
func (ix *ruleIndex) shardMut(k string) *entryShard {
	return cowmap.Mut(&ix.shards[entryShardOf(k)])
}

// add folds one master tuple into the index, interning its match
// values into dict.
func (ix *ruleIndex) add(s *schema.Tuple, dict *value.Dict) {
	kb := make([]byte, 0, 4*len(ix.matchPos))
	for _, p := range ix.matchPos {
		kb = value.AppendSym(kb, dict.InternV(s.Vals[p]))
	}
	k := string(kb)
	sh := ix.shardMut(k)
	e, ok := sh.M[k]
	if !ok {
		sh.M[k] = &rhsEntry{rhs: s.Project(ix.rhsAttrs), witness: s.ID}
		return
	}
	if !e.conflict && !e.rhs.Equal(s.Project(ix.rhsAttrs)) {
		// Replace, never mutate: snapshots may share the old entry.
		sh.M[k] = &rhsEntry{rhs: e.rhs, witness: e.witness, conflict: true}
	}
}

// getBytes is get for a scratch-encoded key. The string conversion in
// the map index expression does not allocate (compiler-recognized
// pattern), so a probe against a reused []byte buffer is
// allocation-free.
func (ix *ruleIndex) getBytes(k []byte) *rhsEntry {
	return ix.shards[entryShardOfBytes(k)].M[string(k)]
}

// ruleIndexKey canonicalizes the (Xm, Bm) pair.
func ruleIndexKey(matchAttrs, rhsAttrs []string) string {
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

// ruleIndexes is the Store's registry (separate struct to keep the
// main file focused). All access is synchronized by Store.mu or by
// snapshot immutability.
type ruleIndexes struct {
	indexes map[string]*ruleIndex
	// shared marks the registry map itself as referenced by a
	// snapshot; the live store copies it before the next write.
	shared bool
}

func newRuleIndexes() *ruleIndexes {
	return &ruleIndexes{indexes: make(map[string]*ruleIndex)}
}

// registryMut returns the registry map, copying it first when a
// snapshot shares it.
func (ri *ruleIndexes) registryMut() map[string]*ruleIndex {
	return cowmap.MutMap(&ri.indexes, &ri.shared)
}

// build constructs the index for one (Xm, Bm) pair from all rows.
func (ri *ruleIndexes) build(sch *schema.Schema, matchAttrs, rhsAttrs []string, rows []*schema.Tuple, dict *value.Dict) {
	idx := newRuleIndex(sch, matchAttrs, rhsAttrs)
	for _, s := range rows {
		idx.add(s, dict)
	}
	ri.registryMut()[ruleIndexKey(matchAttrs, rhsAttrs)] = idx
}

// insert maintains every registered index for a new master tuple.
func (ri *ruleIndexes) insert(s *schema.Tuple, dict *value.Dict) {
	if len(ri.indexes) == 0 {
		return
	}
	reg := ri.registryMut()
	for key, ix := range reg {
		if ix.shared {
			cp := &ruleIndex{matchAttrs: ix.matchAttrs, rhsAttrs: ix.rhsAttrs, matchPos: ix.matchPos, shards: ix.shards}
			reg[key] = cp
			ix = cp
		}
		ix.add(s, dict)
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
			sh.Shared = true
		}
	}
	return &ruleIndexes{indexes: ri.indexes, shared: true}
}

// lookup answers the unique-RHS question for a registered pair; the
// final result reports whether the pair has an index. A key value the
// dictionary has never seen is a certain NoMatch for a registered
// pair — no master tuple carries it (see ruleIndex).
func (ri *ruleIndexes) lookup(matchAttrs []string, key value.List, rhsAttrs []string, dict *value.Dict) (value.List, int64, LookupStatus, bool) {
	ix, ok := ri.indexes[ruleIndexKey(matchAttrs, rhsAttrs)]
	if !ok {
		return nil, 0, NoMatch, false
	}
	kb := make([]byte, 0, 4*len(key))
	for _, v := range key {
		sym, found := dict.LookupV(v)
		if !found {
			return nil, 0, NoMatch, true
		}
		kb = value.AppendSym(kb, sym)
	}
	return entryResult(ix.getBytes(kb))
}

// AppendProbeKey appends the sym-encoded rule-index probe key for t's
// projection on positions, resolving each value through dict without
// interning. ok=false means some value has never been interned: no
// master tuple carries it, so for any registered (Xm, Bm) pair the
// probe is a certain NoMatch (pass encoded=false to RuleHandle.Lookup
// and it answers accordingly). The compiled chase calls this with a
// reused scratch buffer; it never allocates.
func AppendProbeKey(dict *value.Dict, dst []byte, t *schema.Tuple, positions []int) ([]byte, bool) {
	for _, p := range positions {
		sym, found := dict.LookupV(t.Vals[p])
		if !found {
			return dst, false
		}
		dst = value.AppendSym(dst, sym)
	}
	return dst, true
}

// RuleHandle is a pre-resolved unique-RHS lookup handle for one
// (Xm, Bm) pair — the compiled chase's direct line to a rule's index.
// Resolving a handle pays the registry-key build once; every probe
// after that skips the per-lookup ruleIndexKey string construction,
// and on frozen stores (the batch pipeline's and job runners' view)
// the index itself is resolved at handle creation, so a probe is one
// shard hash plus one map hit with no locking at all. On live stores
// the handle keeps the prebuilt key and re-resolves the index under
// the read lock per probe, staying correct across copy-on-write
// registry swaps (Insert after Snapshot replaces shared index
// headers).
type RuleHandle struct {
	store *Store
	key   string
	idx   *ruleIndex // resolved once when the store is frozen
}

// HandleKey canonicalizes a (Xm, Bm) pair into the registry key a
// RuleHandle resolves by. It depends only on the attribute lists, so
// callers that bind handles repeatedly (the compiled chase binds one
// per rule per Chaser) compute it once and pass it to HandleByKey.
func HandleKey(matchAttrs, rhsAttrs []string) string {
	return ruleIndexKey(matchAttrs, rhsAttrs)
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
		h.idx = m.ruleIdx.indexes[key]
	}
	return h
}

// Lookup answers the unique-RHS probe for a sym-encoded composite key
// (the AppendProbeKey encoding of t[X]). encoded=false means the
// probe could not be encoded because some value is absent from the
// dictionary: for a registered pair that is a certain NoMatch (every
// key in the index interned its values when its row was added), so
// the handle answers without touching the shards. The final result
// reports whether a rule index is registered for the pair — false
// means the caller must fall back to the group verification path
// (Store.UniqueRHS), exactly as an unregistered pair does there.
func (h *RuleHandle) Lookup(encKey []byte, encoded bool) (value.List, int64, LookupStatus, bool) {
	ix := h.idx
	if ix == nil {
		m := h.store
		if m.frozen {
			return nil, 0, NoMatch, false // no index at capture: permanent
		}
		m.mu.RLock()
		ix = m.ruleIdx.indexes[h.key]
		if ix == nil {
			m.mu.RUnlock()
			return nil, 0, NoMatch, false
		}
		if !encoded {
			m.mu.RUnlock()
			return nil, 0, NoMatch, true
		}
		e := ix.getBytes(encKey)
		m.mu.RUnlock()
		return entryResult(e)
	}
	if !encoded {
		return nil, 0, NoMatch, true
	}
	return entryResult(ix.getBytes(encKey))
}

// entryResult decodes a probe's entry into the UniqueRHS result shape.
func entryResult(e *rhsEntry) (value.List, int64, LookupStatus, bool) {
	if e == nil {
		return nil, 0, NoMatch, true
	}
	if e.conflict {
		return nil, 0, Conflict, true
	}
	return e.rhs, e.witness, Unique, true
}

// registered lists the (Xm, Bm) pairs with indexes, sorted, for
// diagnostics.
func (ri *ruleIndexes) registered() []string {
	out := make([]string, 0, len(ri.indexes))
	for _, ix := range ri.indexes {
		out = append(out, strings.Join(ix.matchAttrs, ",")+"->"+strings.Join(ix.rhsAttrs, ","))
	}
	sort.Strings(out)
	return out
}

// PrepareRuleIndexes (re)builds the unique-RHS index of every rule in
// the set. Called by PrepareForRules; callers that mutate the
// underlying table directly must re-run it.
func (m *Store) PrepareRuleIndexes(rs *rule.Set) {
	m.lock()
	defer m.unlock()
	rows := m.table.All()
	sch, dict := m.table.Schema(), m.table.Dict()
	for _, r := range rs.Rules() {
		m.ruleIdx.build(sch, r.MatchMasterAttrs(), r.SetMasterAttrs(), rows, dict)
	}
	m.version++
}

// RegisteredRuleIndexes lists the built indexes (diagnostics).
func (m *Store) RegisteredRuleIndexes() []string {
	m.rlock()
	defer m.runlock()
	return m.ruleIdx.registered()
}
