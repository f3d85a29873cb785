package master

import (
	"fmt"
	"hash/maphash"
	"maps"
	"slices"
	"sort"
	"strings"
	"unsafe"

	"cerfix/internal/rule"
	"cerfix/internal/schema"
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
// index holds one entry per key: its witness, the first stored master
// row with that key in table order, and one conflict bit per attribute
// of U, set once a later row disagrees with the witness on that
// attribute. A pair (Xm, Bm) reads its answer off the entry: no entry
// is NoMatch, any of Bm's bits set is Conflict, otherwise Unique with
// the witness's values on Bm. Tuples agree on a projection iff they
// agree on each of its attributes, so this is exactly the per-pair
// answer. φ1–φ9 match on 4 lists, so 4 indexes serve 9 rules. U only
// grows — registering a new Bm attribute appends it — so a bit a pair
// has resolved never moves; a schema has at most schema.MaxAttrs = 64
// attributes, so U's bits fit a uint64. Lookups are O(1) regardless of
// group size. The index is maintained incrementally on Store inserts
// (master data is append-only); bulk loads that bypass the Store
// rebuild it via PrepareForRules.
//
// # Slots point at witness rows
//
// An index is 64 shards, each an open-addressing table of slots
// {hash, witness row, conflict bits}, probed linearly; an empty slot
// has no row. Stored rows are immutable (package storage), so a slot
// keeps no key bytes and no values of its own. A probe hashes the
// tuple's X values in place with hash/maphash, under a process seed
// that is never persisted, then compares them one by one with the
// witness's Xm values and reads Bm straight off the witness. The
// answer is exact whatever the hash does: a collision costs one probe
// step, never a wrong entry. The hash's top bits pick the shard and its
// low bits the first slot; a shard doubles at a load of 3/4. A shard's
// slots are one slice, so the index holds no per-key heap object. The
// seed differs per process, so nothing may depend on slot order: no
// output iterates the slots (registered sorts, MemStats only counts).
//
// # Copy-on-write
//
// Like the storage layer, the registry is versioned copy-on-write:
// Store.Snapshot marks the registry, every index header and every
// shard shared in O(#indexes × 64), constant in master size, and the
// live store copies only what it touches afterwards. A shared shard is
// immutable forever, so snapshot readers need no synchronization; a
// live write to one — a new key, a conflict-bit flip, a growth —
// first copies its slots, one memmove. An unshared shard belongs to the
// live store alone and changes in place, under Store.mu's write lock,
// while live probes hold its read lock. A probe returns its entry by
// value (Entry), so no reader ever aliases a slot.
//
// # Staleness
//
// No stored row can change: the table is an append-only log, so a
// witness never goes stale and Store inserts keep every index current.
// Only a bulk append through Store.Table (ReadCSV) skips the indexes;
// until PrepareForRules runs after it, probes miss the new rows.
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

// slot is one key's entry in a shard's open-addressing table. A slot
// with no row is empty.
type slot struct {
	hash     uint64        // keyHash of the key
	row      *schema.Tuple // the witness: the first stored row with the key
	conflict uint64        // bit i: a later row disagrees with the witness on U[i]
}

// slotBytes is one slot's size, the unit of the memory account.
const slotBytes = int64(unsafe.Sizeof(slot{}))

// Shard geometry: entryShardCount shards (a power of two), picked by
// the hash's top shardBits bits; a shard's first table has minSlots.
// A build sizes its shards once it has added presizeSample rows (see
// presize).
const (
	shardBits       = 6
	entryShardCount = 1 << shardBits
	minSlots        = 8
	presizeSample   = 1024
)

// entryShard is one copy-on-write segment of a rule index: an
// open-addressing table whose length is zero or a power of two, at
// most 3/4 full. Once a snapshot marks it shared it never changes
// again: the live store writes to a copy (mutShard, grow).
type entryShard struct {
	slots  []slot
	n      int // occupied slots
	shared bool
}

// mutShard returns a privately-owned shard for ref: the shard itself
// when no snapshot shares it, otherwise a copy stored back through
// ref. The copy keeps the slot layout. Callers hold the store's write
// lock.
func mutShard(ref **entryShard) *entryShard {
	sh := *ref
	if sh.shared {
		sh = &entryShard{slots: slices.Clone(sh.slots), n: sh.n}
		*ref = sh
	}
	return sh
}

// grow gives the shard at ref size slots (a power of two, more than it
// has), placed by their stored hashes. The old slots are only read, so
// a shared shard grows into a fresh copy without being copied first.
// Callers hold the store's write lock.
func grow(ref **entryShard, size int) *entryShard {
	sh := *ref
	slots := make([]slot, size)
	for _, s := range sh.slots {
		if s.row != nil {
			slots[emptySlot(slots, s.hash)] = s
		}
	}
	if sh.shared {
		sh = &entryShard{n: sh.n}
		*ref = sh
	}
	sh.slots = slots
	return sh
}

// emptySlot returns the first empty slot on h's probe chain. slots
// must have one.
func emptySlot(slots []slot, h uint64) int {
	mask := uint64(len(slots) - 1)
	i := h & mask
	for slots[i].row != nil {
		i = (i + 1) & mask
	}
	return int(i)
}

// hashSeed seeds every key hash of this process. It is never
// persisted: slot positions mean nothing outside the process.
var hashSeed = maphash.MakeSeed()

// testHashHook, when non-nil, replaces every key hash. Tests use it to
// force collisions; production never sets it.
var testHashHook func(uint64) uint64

// keyHash hashes the key whose i-th value is vals[pos[i]]. Each value
// is hashed whole and folded in by a multiply, so ("12", "3") and
// ("1", "23") hash apart, although exactness never rests on that.
func keyHash(vals value.List, pos []int) uint64 {
	var h uint64
	for _, p := range pos {
		h = h*0x9e3779b97f4a7c15 ^ maphash.String(hashSeed, string(vals[p]))
	}
	if testHashHook != nil {
		return testHashHook(h)
	}
	return h
}

// ruleIndex holds the unique-RHS entries of one master match list Xm.
// The header follows the shared/copy-on-write discipline: once a
// snapshot references it, the live store copies the header before
// replacing any shard pointer.
type ruleIndex struct {
	matchAttrs []string // Xm
	unionAttrs []string // U, in registration order
	matchPos   []int    // schema positions of matchAttrs
	unionPos   []int    // schema positions of unionAttrs
	shared     bool
	shards     [entryShardCount]*entryShard
}

// build fills a fresh index from the stored rows scan visits, in table
// order; rows is how many there are.
func (ix *ruleIndex) build(sch *schema.Schema, rows int, scan func(func(*schema.Tuple) bool)) {
	ix.matchPos = make([]int, len(ix.matchAttrs))
	for i, a := range ix.matchAttrs {
		ix.matchPos[i] = sch.MustIndex(a)
	}
	ix.unionPos = make([]int, len(ix.unionAttrs))
	for i, a := range ix.unionAttrs {
		ix.unionPos[i] = sch.MustIndex(a)
	}
	shards := make([]entryShard, entryShardCount)
	for i := range ix.shards {
		ix.shards[i] = &shards[i]
	}
	added := 0
	scan(func(s *schema.Tuple) bool {
		ix.add(s)
		if added++; added == presizeSample && rows >= 2*presizeSample {
			ix.presize(rows)
		}
		return true
	})
}

// presize sizes every shard for all rows' keys when the first
// presizeSample rows were nearly all distinct keys, as on a key-like Xm
// (a zip, a phone), so the build reaches the final size without a
// chain of doublings. An Xm with fewer keys than that keeps growing on
// demand: sizing φ9's handful of area codes from the row count would
// waste most of the slots.
func (ix *ruleIndex) presize(rows int) {
	keys := 0
	for _, sh := range &ix.shards {
		keys += sh.n
	}
	if keys*4 < presizeSample*3 {
		return
	}
	perShard := rows * keys / presizeSample / entryShardCount
	perShard += perShard / 8 // headroom for the spread between shards
	size := minSlots
	for size*3 < perShard*4 {
		size *= 2
	}
	for i := range ix.shards {
		if len(ix.shards[i].slots) < size {
			grow(&ix.shards[i], size)
		}
	}
}

// shardOf returns the header's reference to the shard of the keys
// hashing to h.
func (ix *ruleIndex) shardOf(h uint64) **entryShard {
	return &ix.shards[h>>(64-shardBits)]
}

// probe walks h's chain in sh for the key whose i-th value is
// vals[pos[i]]. It returns the key's slot and true, or the empty slot
// that ends the chain and false. sh must have slots.
func (ix *ruleIndex) probe(sh *entryShard, h uint64, vals value.List, pos []int) (int, bool) {
	mask := uint64(len(sh.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &sh.slots[i]
		if s.row == nil {
			return int(i), false
		}
		if s.hash == h && ix.carries(s.row, vals, pos) {
			return int(i), true
		}
	}
}

// carries reports whether row's Xm values equal the key's, one by one.
func (ix *ruleIndex) carries(row *schema.Tuple, vals value.List, pos []int) bool {
	for i, mp := range ix.matchPos {
		if row.Vals[mp] != vals[pos[i]] {
			return false
		}
	}
	return true
}

// add folds one master row into the index. A new key keeps s itself as
// its witness, so s must be a stored row: immutable, and kept by the
// table.
func (ix *ruleIndex) add(s *schema.Tuple) {
	h := keyHash(s.Vals, ix.matchPos)
	ref := ix.shardOf(h)
	sh := *ref
	i := -1
	if len(sh.slots) > 0 {
		var found bool
		if i, found = ix.probe(sh, h, s.Vals, ix.matchPos); found {
			w := &sh.slots[i]
			conflict := w.conflict
			for j, p := range ix.unionPos {
				if s.Vals[p] != w.row.Vals[p] {
					conflict |= 1 << uint(j)
				}
			}
			if conflict != w.conflict {
				mutShard(ref).slots[i].conflict = conflict
			}
			return
		}
	}
	if (sh.n+1)*4 > len(sh.slots)*3 {
		sh = grow(ref, max(minSlots, 2*len(sh.slots)))
		i = emptySlot(sh.slots, h)
	} else {
		sh = mutShard(ref)
	}
	sh.slots[i] = slot{hash: h, row: s}
	sh.n++
}

// get probes the key whose i-th value is vals[pos[i]]. A key of another
// arity than Xm matches nothing.
func (ix *ruleIndex) get(vals value.List, pos []int) Entry {
	if len(pos) != len(ix.matchPos) {
		return Entry{}
	}
	h := keyHash(vals, pos)
	sh := *ix.shardOf(h)
	if sh.n == 0 {
		return Entry{}
	}
	i, ok := ix.probe(sh, h, vals, pos)
	if !ok {
		return Entry{}
	}
	return Entry{row: sh.slots[i].row, conflict: sh.slots[i].conflict}
}

// rulePair resolves one registered (Xm, Bm) pair: the position of its
// index in the registry, Bm's schema positions, where an answer reads
// the witness row, and Bm's bits in that index's U. Immutable once
// registered: positions and bits never move.
type rulePair struct {
	index int
	pos   []int
	mask  uint64
}

// answer reads the pair's result off a probed entry.
func (p *rulePair) answer(e Entry) Answer {
	if e.row == nil {
		return Answer{Status: NoMatch}
	}
	if e.conflict&p.mask != 0 {
		return Answer{Status: Conflict}
	}
	return Answer{Status: Unique, Witness: e.row.ID, vals: e.row.Vals, pos: p.pos}
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
// the rows scan visits, rows of them, the index of every Xm the rules
// use. An index
// that gains Bm attributes appends them to its U. A rule naming an
// attribute sch lacks is an error, reported before anything is
// registered.
func (ri *ruleIndexes) prepare(sch *schema.Schema, rules []*rule.Rule, rows int, scan func(func(*schema.Tuple) bool)) error {
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
		at := slices.IndexFunc(ri.indexes, func(ix *ruleIndex) bool { return slices.Equal(ix.matchAttrs, xm) })
		if at < 0 {
			at = len(ri.indexes)
			ri.indexes = append(ri.indexes, &ruleIndex{matchAttrs: xm})
		}
		if !slices.Contains(rebuild, at) {
			// A fresh header, filled below: snapshots keep the old one.
			old := ri.indexes[at]
			ri.indexes[at] = &ruleIndex{matchAttrs: old.matchAttrs, unionAttrs: slices.Clip(old.unionAttrs)}
			rebuild = append(rebuild, at)
		}
		key := HandleKey(xm, bm)
		if _, ok := ri.pairs[key]; ok {
			continue
		}
		ix := ri.indexes[at]
		p := &rulePair{index: at, pos: make([]int, len(bm))}
		for i, a := range bm {
			j := slices.Index(ix.unionAttrs, a)
			if j < 0 {
				j = len(ix.unionAttrs)
				ix.unionAttrs = append(ix.unionAttrs, a)
			}
			p.pos[i] = sch.MustIndex(a)
			p.mask |= 1 << uint(j)
		}
		ri.pairs[key] = p
	}
	for _, at := range rebuild {
		ri.indexes[at].build(sch, rows, scan)
	}
	return nil
}

// insert maintains every registered index for a new stored row.
func (ri *ruleIndexes) insert(s *schema.Tuple) {
	if len(ri.indexes) == 0 {
		return
	}
	ri.mut()
	for i, ix := range ri.indexes {
		if ix.shared {
			cp := *ix
			cp.shared = false
			ix = &cp
			ri.indexes[i] = ix
		}
		ix.add(s)
	}
}

// snapshot returns a frozen O(1) view: the registry, every index
// header and every shard are marked shared, so the live store
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
	a := p.answer(ri.indexes[p.index].get(key, keyPos(key)))
	return a.List(), a.Witness, a.Status, true
}

// keyPos returns the positions 0, 1, … at which a key given as its
// values in Xm order is probed.
func keyPos(key value.List) []int {
	pos := make([]int, len(key))
	for i := range pos {
		pos[i] = i
	}
	return pos
}

// Answer is one (Xm, Bm) pair's unique-RHS result, read in place off
// the witness row: RHS(i) is the witness's value on the pair's i-th
// Bm attribute, valid when Status is Unique.
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

// Entry is a probed key's entry on one index, by value: the witness
// row and the conflict bits, copied out of the slot. Every pair
// registered with that index's Xm reads its own answer from it
// (RuleHandle.Read), so one probe per key serves them all. The zero
// Entry is a miss.
type Entry struct {
	row      *schema.Tuple
	conflict uint64
}

// RuleHandle is a pre-resolved unique-RHS lookup handle for one
// (Xm, Bm) pair — the compiled chase's direct line to a rule's index.
// On frozen stores (the batch pipeline's and job runners' view) the
// pair — its index and Bm's positions — is resolved at handle creation
// with one registry lookup, so a probe is one hash and a walk of one
// slot chain with no locking at all. On live stores the handle keeps
// the pair key and re-resolves it under the read lock per call,
// staying correct across copy-on-write registry swaps (Insert after
// Snapshot replaces shared index headers).
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

// Probe looks up the key t[X] on the pair's index, read in place: its
// i-th value, in Xm order, is vals[pos[i]], so the chase passes a
// tuple's values and the rule's X positions and nothing is encoded. It
// returns the entry, which any handle of a pair with the same Xm on the
// same store view may Read, and this pair's answer. The final result
// reports whether a rule index is registered for the pair — false
// means the caller must fall back to the scan (Store.UniqueRHS),
// exactly as an unregistered pair does there.
func (h *RuleHandle) Probe(vals value.List, pos []int) (Entry, Answer, bool) {
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
	e := m.ruleIdx.indexes[p.index].get(vals, pos)
	return e, p.answer(e), true
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
	return p.answer(e), true
}

// Lookup is Probe for a key given as its values in Xm order, returning
// the answer in the UniqueRHS result shape. A key of another arity than
// Xm matches nothing.
func (h *RuleHandle) Lookup(key value.List) (value.List, int64, LookupStatus, bool) {
	_, a, ok := h.Probe(key, keyPos(key))
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
	if err := m.ruleIdx.prepare(m.table.Schema(), rs.Rules(), m.table.Len(), m.table.ScanShared); err != nil {
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
