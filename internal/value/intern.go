// Interned values: a concurrent, snapshot-shareable dictionary mapping
// strings to dense Sym ids. The master rule indexes key their entries
// by the Syms of the match values, so a probe key is 4 bytes per
// attribute and a value the dictionary has never seen is a certain
// miss; the WAL writes rows as Syms plus dictionary deltas.
//
// Concurrency model (the part that makes snapshots free):
//
//   - The dictionary is append-only. A Sym, once published, is
//     immutable forever, so any number of frozen snapshots can share
//     one *Dict with the live writer without copying anything.
//   - Readers (Lookup, Str) are lock-free: they navigate an
//     atomically published open-addressed id table and an atomically
//     published page directory. Writers serialize on a mutex and
//     publish each new entry with a release store after the string is
//     in place, so a reader that observes a slot always observes the
//     string behind it.
//   - String bytes live in append-only arena chunks. A chunk is never
//     reallocated in place — when full, a fresh chunk is started — so
//     every published string header points at bytes that are immutable
//     for the life of the dictionary.
//
// Memory: one interned string costs its raw bytes in the arena plus a
// 16-byte page-directory slot and ~8 bytes of id table (load factor
// ≤ 50%).
package value

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"cerfix/internal/simd"
)

// Sym is a dense dictionary id for an interned string. Equality of two
// Syms from the same Dict is equality of the underlying strings, not
// of the values under a domain: two distinct Syms may compare equal
// under DInt ("7" vs "07").
type Sym uint32

const (
	symPageBits = 12
	symPageSize = 1 << symPageBits
	symPageMask = symPageSize - 1

	// dictChunkSize is the arena chunk granularity. Chunks are never
	// grown in place (published strings alias their bytes); a string
	// larger than a chunk gets a dedicated chunk.
	dictChunkSize = 64 << 10

	initialTableSize = 1 << 10
)

// symTable is one immutable-capacity open-addressed id table. Slots
// hold sym+1 (0 = empty) and are inserted with atomic stores so
// lock-free readers can probe concurrently with the writer. The table
// is replaced wholesale (new pointer) when it reaches 50% load.
type symTable struct {
	slots []atomic.Uint32
	mask  uint32
}

// DictStats is a point-in-time memory account of a dictionary.
type DictStats struct {
	Syms int `json:"syms"`
	// DataBytes is the raw string data held in arena chunks.
	DataBytes int64 `json:"data_bytes"`
	// Bytes is the total estimated footprint: arena capacity plus the
	// page directory and the id table.
	Bytes int64 `json:"bytes"`
}

// Dict is the concurrent interning dictionary. The zero value is not
// usable; call NewDict.
type Dict struct {
	table atomic.Pointer[symTable]
	pages atomic.Pointer[[][]string]
	n     atomic.Uint32

	mu        sync.Mutex // serializes writers; readers never take it
	chunk     []byte     // current arena chunk (writer-only)
	chunkCap  int64      // total arena capacity ever allocated
	dataBytes int64      // raw bytes of interned strings
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	d := &Dict{}
	d.table.Store(&symTable{
		slots: make([]atomic.Uint32, initialTableSize),
		mask:  initialTableSize - 1,
	})
	pages := make([][]string, 0, 8)
	d.pages.Store(&pages)
	return d
}

// Len returns the number of interned strings.
func (d *Dict) Len() int { return int(d.n.Load()) }

// Stats returns the dictionary's memory account.
func (d *Dict) Stats() DictStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := int64(d.n.Load())
	t := d.table.Load()
	pages := *d.pages.Load()
	return DictStats{
		Syms:      int(n),
		DataBytes: d.dataBytes,
		Bytes: d.chunkCap +
			int64(len(pages))*symPageSize*int64(unsafe.Sizeof("")) +
			int64(len(t.slots))*4,
	}
}

// Lookup returns the Sym for s if it has been interned. It is
// lock-free and allocation-free, safe to call from any number of
// readers concurrently with one writer.
func (d *Dict) Lookup(s string) (Sym, bool) {
	t := d.table.Load()
	h := fnvString(s) & t.mask
	for {
		v := t.slots[h].Load()
		if v == 0 {
			return 0, false
		}
		sym := Sym(v - 1)
		// The page directory pointer is published before the slot, so
		// loading it after observing the slot always finds the page.
		pages := *d.pages.Load()
		if pages[sym>>symPageBits][sym&symPageMask] == s {
			return sym, true
		}
		h = (h + 1) & t.mask
	}
}

// LookupV is Lookup for a cell value.
func (d *Dict) LookupV(v V) (Sym, bool) { return d.Lookup(string(v)) }

// Str returns the interned string for sym. sym must have come from
// this dictionary; an out-of-range id panics. The returned string
// aliases the dictionary's immutable arena — callers must treat it as
// read-only (Go strings already are).
func (d *Dict) Str(sym Sym) string {
	pages := *d.pages.Load()
	return pages[sym>>symPageBits][sym&symPageMask]
}

// Intern returns the Sym for s, assigning the next dense id if s has
// not been seen before. The string's bytes are copied into the
// dictionary's arena, so callers may reuse their buffer.
func (d *Dict) Intern(s string) Sym {
	if sym, ok := d.Lookup(s); ok {
		return sym
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	// Re-check: another writer may have interned s while we waited.
	if sym, ok := d.Lookup(s); ok {
		return sym
	}

	sym := Sym(d.n.Load())

	// Copy the bytes into the arena and build the canonical string
	// header. unsafe.String is sound here because the chunk region
	// [off, off+len(s)) is written exactly once and the chunk is never
	// reallocated in place — full chunks are abandoned to the strings
	// that alias them (interior pointers keep the backing array live).
	var stored string
	if len(s) > 0 {
		if len(d.chunk)+len(s) > cap(d.chunk) {
			c := dictChunkSize
			if len(s) > c {
				c = len(s)
			}
			d.chunk = make([]byte, 0, c)
			d.chunkCap += int64(c)
		}
		off := len(d.chunk)
		d.chunk = append(d.chunk, s...)
		stored = unsafe.String(&d.chunk[off], len(s))
	}

	// Place the string in its page, publishing a grown page directory
	// first if sym opens a new page.
	p, i := int(sym>>symPageBits), int(sym&symPageMask)
	pages := *d.pages.Load()
	if p == len(pages) {
		grown := make([][]string, len(pages)+1)
		copy(grown, pages)
		grown[p] = make([]string, symPageSize)
		d.pages.Store(&grown)
		pages = grown
	}
	pages[p][i] = stored
	d.dataBytes += int64(len(s))

	// Insert into the id table, growing first if the insert would
	// push load factor past 50%.
	t := d.table.Load()
	if (d.n.Load()+1)*2 > uint32(len(t.slots)) {
		t = d.growTable(t)
	}
	h := fnvString(s) & t.mask
	for t.slots[h].Load() != 0 {
		h = (h + 1) & t.mask
	}
	// Publish order matters: page entry (plain write) → count → slot
	// (release store). A reader that observes the slot observes the
	// string; a reader that observes n observes every page entry
	// below it.
	d.n.Add(1)
	t.slots[h].Store(uint32(sym) + 1)
	return sym
}

// InternV is Intern for a cell value.
func (d *Dict) InternV(v V) Sym { return d.Intern(string(v)) }

// growTable doubles the id table and republishes it. Readers holding
// the old table keep probing it safely — it is frozen at under 50%
// load and simply misses entries inserted after the swap.
func (d *Dict) growTable(t *symTable) *symTable {
	nt := &symTable{
		slots: make([]atomic.Uint32, len(t.slots)*2),
		mask:  uint32(len(t.slots)*2 - 1),
	}
	pages := *d.pages.Load()
	for i := range t.slots {
		v := t.slots[i].Load()
		if v == 0 {
			continue
		}
		sym := Sym(v - 1)
		s := pages[sym>>symPageBits][sym&symPageMask]
		h := fnvString(s) & nt.mask
		for nt.slots[h].Load() != 0 {
			h = (h + 1) & nt.mask
		}
		nt.slots[h].Store(v)
	}
	d.table.Store(nt)
	return nt
}

// AppendSym appends sym's fixed-width little-endian encoding to dst.
// Composite sym-encoded keys (the master rule indexes' entry keys and
// the compiled chase's probes) concatenate these 4-byte groups; fixed
// width means no length prefixes are needed for unambiguous decoding.
func AppendSym(dst []byte, s Sym) []byte {
	return append(dst, byte(s), byte(s>>8), byte(s>>16), byte(s>>24))
}

// fnvString is FNV-1a over the string bytes via simd.Hash, the same
// loop the master rule indexes route their shards with.
func fnvString(s string) uint32 { return simd.Hash(s) }
