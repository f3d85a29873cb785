// Package schema defines relation schemas, tuples and attribute sets —
// the vocabulary every other CerFix package speaks. Input tuples and
// master tuples generally live under *different* schemas (as in the
// demo: a CUST input relation and a PERSON master relation); editing
// rules bridge the two via attribute correspondences.
package schema

import (
	"fmt"
	"sort"
	"strings"

	"cerfix/internal/value"
)

// MaxAttrs bounds the number of attributes per schema. Attribute sets
// are represented as 64-bit bitsets, which comfortably covers the
// relational schemas of the paper (9 and 10 attributes) and the
// synthetic scale-up experiments.
const MaxAttrs = 64

// Attribute describes one column of a relation.
type Attribute struct {
	// Name is the attribute name, unique within its schema and
	// case-sensitive (the paper uses mixed-case names such as FN, AC).
	Name string
	// Domain fixes comparison semantics for the attribute's values.
	Domain value.Domain
	// Desc is an optional human-readable description shown by the web
	// interface and CLIs.
	Desc string
}

// Schema is an immutable ordered list of attributes with a name.
type Schema struct {
	name  string
	attrs []Attribute
	index map[string]int
}

// New builds a schema, validating that attribute names are unique,
// non-empty and at most MaxAttrs in number.
func New(name string, attrs ...Attribute) (*Schema, error) {
	if name == "" {
		return nil, fmt.Errorf("schema: empty schema name")
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("schema %s: no attributes", name)
	}
	if len(attrs) > MaxAttrs {
		return nil, fmt.Errorf("schema %s: %d attributes exceeds limit %d", name, len(attrs), MaxAttrs)
	}
	idx := make(map[string]int, len(attrs))
	for i, a := range attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("schema %s: attribute %d has empty name", name, i)
		}
		if _, dup := idx[a.Name]; dup {
			return nil, fmt.Errorf("schema %s: duplicate attribute %q", name, a.Name)
		}
		idx[a.Name] = i
	}
	cp := make([]Attribute, len(attrs))
	copy(cp, attrs)
	return &Schema{name: name, attrs: cp, index: idx}, nil
}

// MustNew is New but panics on error; for static schema literals.
func MustNew(name string, attrs ...Attribute) *Schema {
	s, err := New(name, attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Str is shorthand for a string-domain attribute.
func Str(name string) Attribute { return Attribute{Name: name, Domain: value.DString} }

// Int is shorthand for an int-domain attribute.
func Int(name string) Attribute { return Attribute{Name: name, Domain: value.DInt} }

// Name returns the schema's relation name.
func (s *Schema) Name() string { return s.name }

// Len returns the number of attributes.
func (s *Schema) Len() int { return len(s.attrs) }

// Attr returns the attribute at position i.
func (s *Schema) Attr(i int) Attribute { return s.attrs[i] }

// Attrs returns a copy of the attribute list.
func (s *Schema) Attrs() []Attribute {
	cp := make([]Attribute, len(s.attrs))
	copy(cp, s.attrs)
	return cp
}

// AttrNames returns the attribute names in schema order.
func (s *Schema) AttrNames() []string {
	out := make([]string, len(s.attrs))
	for i, a := range s.attrs {
		out[i] = a.Name
	}
	return out
}

// Index returns the position of the named attribute.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// MustIndex is Index but panics when the attribute does not exist; used
// where the name was already validated.
func (s *Schema) MustIndex(name string) int {
	i, ok := s.index[name]
	if !ok {
		panic(fmt.Sprintf("schema %s: unknown attribute %q", s.name, name))
	}
	return i
}

// Has reports whether the schema contains the named attribute.
func (s *Schema) Has(name string) bool {
	_, ok := s.index[name]
	return ok
}

// Domain returns the domain of the named attribute, defaulting to
// DString for unknown names (callers validate names separately).
func (s *Schema) Domain(name string) value.Domain {
	if i, ok := s.index[name]; ok {
		return s.attrs[i].Domain
	}
	return value.DString
}

// String renders "Name(attr1,attr2,...)".
func (s *Schema) String() string {
	return s.name + "(" + strings.Join(s.AttrNames(), ",") + ")"
}

// Tuple is one row under a schema. ID is a store-assigned identifier
// (0 when detached). Tuples are mutable; the monitor clones before
// editing so callers keep their originals.
type Tuple struct {
	Schema *Schema
	ID     int64
	Vals   value.List
}

// NewTuple builds a tuple, checking arity.
func NewTuple(s *Schema, vals ...value.V) (*Tuple, error) {
	if len(vals) != s.Len() {
		return nil, fmt.Errorf("schema %s: tuple arity %d, want %d", s.name, len(vals), s.Len())
	}
	cp := make(value.List, len(vals))
	copy(cp, vals)
	return &Tuple{Schema: s, Vals: cp}, nil
}

// MustTuple is NewTuple but panics on arity mismatch.
func MustTuple(s *Schema, vals ...value.V) *Tuple {
	t, err := NewTuple(s, vals...)
	if err != nil {
		panic(err)
	}
	return t
}

// TupleFromMap builds a tuple from an attribute->value map; absent
// attributes become null, unknown keys are an error.
func TupleFromMap(s *Schema, m map[string]string) (*Tuple, error) {
	vals := make(value.List, s.Len())
	for k, v := range m {
		i, ok := s.Index(k)
		if !ok {
			return nil, fmt.Errorf("schema %s: unknown attribute %q", s.name, k)
		}
		vals[i] = value.V(v)
	}
	return &Tuple{Schema: s, Vals: vals}, nil
}

// Get returns the value of the named attribute.
func (t *Tuple) Get(name string) value.V {
	return t.Vals[t.Schema.MustIndex(name)]
}

// Set assigns the value of the named attribute.
func (t *Tuple) Set(name string, v value.V) {
	t.Vals[t.Schema.MustIndex(name)] = v
}

// At returns the value at position i.
func (t *Tuple) At(i int) value.V { return t.Vals[i] }

// Clone returns a deep copy sharing the schema.
func (t *Tuple) Clone() *Tuple {
	cp := make(value.List, len(t.Vals))
	copy(cp, t.Vals)
	return &Tuple{Schema: t.Schema, ID: t.ID, Vals: cp}
}

// Equal reports whether two tuples agree on every attribute (IDs are
// ignored; schemas must be the same object or have equal layouts).
func (t *Tuple) Equal(o *Tuple) bool {
	if t.Schema.Len() != o.Schema.Len() {
		return false
	}
	return t.Vals.Equal(o.Vals)
}

// Project returns the values of the named attributes, in the given
// order.
func (t *Tuple) Project(names []string) value.List {
	out := make(value.List, len(names))
	for i, n := range names {
		out[i] = t.Get(n)
	}
	return out
}

// ProjectAt returns the values at the given positions, in order.
// The position-resolved sibling of Project for callers that resolved
// names once (compiled rule plans).
func (t *Tuple) ProjectAt(positions []int) value.List {
	out := make(value.List, len(positions))
	for i, p := range positions {
		out[i] = t.Vals[p]
	}
	return out
}

// Map renders the tuple as an attribute->string map (for JSON and
// display).
func (t *Tuple) Map() map[string]string {
	m := make(map[string]string, t.Schema.Len())
	for i, a := range t.Schema.attrs {
		m[a.Name] = string(t.Vals[i])
	}
	return m
}

// String renders "name(attr=val, ...)" with attributes in schema order.
func (t *Tuple) String() string {
	var b strings.Builder
	b.WriteString(t.Schema.name)
	b.WriteString("(")
	for i, a := range t.Schema.attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%s", a.Name, t.Vals[i])
	}
	b.WriteString(")")
	return b.String()
}

// DiffAttrs returns the names of attributes where t and o differ,
// sorted. Both tuples must share the schema layout.
func (t *Tuple) DiffAttrs(o *Tuple) []string {
	var out []string
	for i, a := range t.Schema.attrs {
		if t.Vals[i] != o.Vals[i] {
			out = append(out, a.Name)
		}
	}
	sort.Strings(out)
	return out
}
