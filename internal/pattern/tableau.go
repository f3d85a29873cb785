package pattern

import (
	"hash/maphash"
	"slices"
	"sort"
	"strconv"
	"strings"

	"cerfix/internal/schema"
	"cerfix/internal/value"
)

// Tableau is an ordered set of pattern tuples over a shared attribute
// list Z — the Tc component of a certain region. A tuple "matches the
// tableau" when it matches at least one row (disjunction of rows).
//
// A certain region's rows are projections of master tuples, so the
// tableau stores them the way a relation is stored: keyed on the
// values they pin. Rows are grouped by the set of string-domain
// attributes they pin with "=", and within a group hashed on those
// values; Matches costs one hash probe per group plus a full check of
// the rows under the probed hash, instead of a scan of every row. Only
// string-domain attributes are keyed because there, and only there,
// value.Equal is byte equality: under DInt "02005" equals "2005", and
// under DFloat "NaN" equals every number, so no byte key can stand in
// for Equal. "=" on other domains, "!=", ranges and IN are left to the
// full check of each candidate row.
//
// The indexes hold row numbers, not copies of rows or their strings:
// a hash maps to the newest row under it, and each row links to the
// row before it under the same hash. They are built by AddRow; Matches
// only reads, so any number of goroutines may call it once the rows
// are in. Rows must only grow through AddRow.
type Tableau struct {
	// Z lists the attributes the tableau speaks about, in a canonical
	// (sorted) order.
	Z []string
	// Rows are the pattern tuples in insertion order; each row's
	// conditions mention only attributes in Z.
	Rows []Pattern

	keyable map[string]bool // Z attributes of domain DString
	seed    maphash.Seed
	byConds map[uint64]int32 // hash of a row's condition key → newest row
	groups  []*rowGroup
	links   []rowLinks // per row
	// AddRow's scratch: the key being hashed and the row's pins.
	keyBuf []byte
	pinBuf []Condition
}

// rowGroup indexes the rows that pin the same keyable attributes.
type rowGroup struct {
	// attrs are the pinned attributes, sorted; the group of rows that
	// pin none has no attrs and hashes every row to the same key.
	attrs []string
	// byKey maps the hash of the pinned values (value.AppendKeyV of
	// each, in attrs order) to the newest row pinning them.
	byKey map[uint64]int32
}

// rowLinks chain a row to the previous row with the same condition
// key hash and the previous row of its group with the same key hash;
// -1 ends a chain. Equal hashes mostly mean equal conditions or values,
// but a chain may hold colliding rows, so every walk checks each row
// it visits.
type rowLinks struct {
	sameConds, sameKey int32
}

// NewTableau builds a tableau over attrs (copied, sorted). sch supplies
// the attribute domains that decide which attributes are keyed; Matches
// expects tuples of that schema.
func NewTableau(sch *schema.Schema, attrs []string) *Tableau {
	z := append([]string(nil), attrs...)
	sort.Strings(z)
	keyable := make(map[string]bool, len(z))
	for _, a := range z {
		if i, ok := sch.Index(a); ok && sch.Attr(i).Domain == value.DString {
			keyable[a] = true
		}
	}
	return &Tableau{Z: z, keyable: keyable, seed: maphash.MakeSeed(), byConds: make(map[uint64]int32)}
}

// AddRow appends a row after checking its scope is within Z. Duplicate
// rows (the same conditions in the same order, so the same string
// form) are dropped but still reported as accepted. A kept row holds
// p's condition slice, which the caller must not change afterwards; a
// dropped one is not retained.
func (tb *Tableau) AddRow(p Pattern) bool {
	for _, c := range p.Conds {
		if !slices.Contains(tb.Z, c.Attr) {
			return false
		}
	}
	key := tb.keyBuf[:0]
	for _, c := range p.Conds {
		key = appendCondKey(key, c)
	}
	condsHash := maphash.Bytes(tb.seed, key)
	for i := chainHead(tb.byConds, condsHash); i >= 0; i = tb.links[i].sameConds {
		if sameConds(tb.Rows[i].Conds, p.Conds) {
			tb.keyBuf = key
			return true
		}
	}

	// Key the row on its "=" pins of keyable attributes. A row pinning
	// one attribute twice keys it twice; the probe repeats the tuple's
	// value, so the row stays reachable whenever the scan could match
	// it.
	pinned := tb.pinBuf[:0]
	for _, c := range p.Conds {
		if c.Op == OpEq && tb.keyable[c.Attr] {
			pinned = append(pinned, c)
		}
	}
	slices.SortFunc(pinned, func(a, b Condition) int { return strings.Compare(a.Attr, b.Attr) })
	key = key[:0]
	for _, c := range pinned {
		key = value.AppendKeyV(key, c.Const)
	}
	g := tb.group(pinned)
	keyHash := maphash.Bytes(tb.seed, key)
	tb.keyBuf, tb.pinBuf = key, pinned

	row := int32(len(tb.Rows))
	tb.Rows = append(tb.Rows, p)
	tb.links = append(tb.links, rowLinks{
		sameConds: chainHead(tb.byConds, condsHash),
		sameKey:   chainHead(g.byKey, keyHash),
	})
	tb.byConds[condsHash] = row
	g.byKey[keyHash] = row
	return true
}

// appendCondKey appends the typed key of c: its attribute, operator
// and the operands that operator reads (none for the wildcard, the set
// for IN, the constant otherwise), length-prefixed — the information
// String renders, without formatting it.
func appendCondKey(dst []byte, c Condition) []byte {
	dst = value.AppendKeyV(dst, value.V(c.Attr))
	dst = append(strconv.AppendInt(dst, int64(c.Op), 10), '|')
	switch c.Op {
	case OpAny:
	case OpIn:
		dst = append(strconv.AppendInt(dst, int64(len(c.Set)), 10), '|')
		for _, v := range c.Set {
			dst = value.AppendKeyV(dst, v)
		}
	default:
		dst = value.AppendKeyV(dst, c.Const)
	}
	return dst
}

// sameConds reports whether a and b hold the same conditions in the
// same order, comparing what appendCondKey encodes.
func sameConds(a, b []Condition) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if x.Attr != y.Attr || x.Op != y.Op {
			return false
		}
		switch x.Op {
		case OpAny:
		case OpIn:
			if !slices.Equal(x.Set, y.Set) {
				return false
			}
		default:
			if x.Const != y.Const {
				return false
			}
		}
	}
	return true
}

// chainHead returns the newest row under h, or -1.
func chainHead(heads map[uint64]int32, h uint64) int32 {
	if i, ok := heads[h]; ok {
		return i
	}
	return -1
}

// group returns the row group for the attributes of pinned, creating
// it on first use.
func (tb *Tableau) group(pinned []Condition) *rowGroup {
	for _, g := range tb.groups {
		if slices.EqualFunc(g.attrs, pinned, func(a string, c Condition) bool { return a == c.Attr }) {
			return g
		}
	}
	attrs := make([]string, len(pinned))
	for i, c := range pinned {
		attrs[i] = c.Attr
	}
	g := &rowGroup{attrs: attrs, byKey: make(map[uint64]int32)}
	tb.groups = append(tb.groups, g)
	return g
}

// Matches reports whether t matches at least one row. An empty tableau
// matches nothing (no guarantee rows — no coverage); a tableau
// containing an empty pattern row matches everything. t must be a tuple
// of the schema given to NewTableau.
func (tb *Tableau) Matches(t *schema.Tuple) bool {
	var buf [128]byte
groups:
	for _, g := range tb.groups {
		key := buf[:0]
		for _, a := range g.attrs {
			i, ok := t.Schema.Index(a)
			if !ok {
				continue groups // every row of g fails on the missing attribute
			}
			key = value.AppendKeyV(key, t.At(i))
		}
		for i := chainHead(g.byKey, maphash.Bytes(tb.seed, key)); i >= 0; i = tb.links[i].sameKey {
			if tb.Rows[i].Matches(t) {
				return true
			}
		}
	}
	return false
}
