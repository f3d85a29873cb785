package schema

import (
	"strings"
	"testing"

	"cerfix/internal/value"
)

func custSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := New("CUST",
		Str("FN"), Str("LN"), Str("AC"), Str("phn"),
		Str("type"), Str("str"), Str("city"), Str("zip"), Str("item"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(""); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := New("R"); err == nil {
		t.Error("zero attributes accepted")
	}
	if _, err := New("R", Str("a"), Str("a")); err == nil {
		t.Error("duplicate attribute accepted")
	}
	if _, err := New("R", Attribute{Name: ""}); err == nil {
		t.Error("empty attribute name accepted")
	}
	attrs := make([]Attribute, MaxAttrs+1)
	for i := range attrs {
		attrs[i] = Str(strings.Repeat("a", i+1))
	}
	if _, err := New("R", attrs...); err == nil {
		t.Error("oversized schema accepted")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic on invalid schema")
		}
	}()
	MustNew("")
}

func TestSchemaAccessors(t *testing.T) {
	s := custSchema(t)
	if s.Name() != "CUST" {
		t.Errorf("Name = %q", s.Name())
	}
	if s.Len() != 9 {
		t.Errorf("Len = %d", s.Len())
	}
	if i, ok := s.Index("zip"); !ok || i != 7 {
		t.Errorf("Index(zip) = %d, %v", i, ok)
	}
	if _, ok := s.Index("nope"); ok {
		t.Error("Index found missing attribute")
	}
	if !s.Has("FN") || s.Has("xx") {
		t.Error("Has misbehaved")
	}
	if s.MustIndex("item") != 8 {
		t.Error("MustIndex(item) wrong")
	}
	names := s.AttrNames()
	if len(names) != 9 || names[0] != "FN" || names[8] != "item" {
		t.Errorf("AttrNames = %v", names)
	}
	if got := s.String(); got != "CUST(FN,LN,AC,phn,type,str,city,zip,item)" {
		t.Errorf("String = %q", got)
	}
	if s.Domain("FN") != value.DString {
		t.Error("Domain(FN) wrong")
	}
	// Attrs returns a copy: mutating it must not affect the schema.
	a := s.Attrs()
	a[0].Name = "HACKED"
	if s.Attr(0).Name != "FN" {
		t.Error("Attrs leaked internal state")
	}
}

func TestMustIndexPanics(t *testing.T) {
	s := custSchema(t)
	defer func() {
		if recover() == nil {
			t.Fatal("MustIndex did not panic")
		}
	}()
	s.MustIndex("missing")
}

func TestTupleBasics(t *testing.T) {
	s := custSchema(t)
	tu, err := NewTuple(s, "Bob", "Brady", "020", "079172485", "2", "501 Elm St", "Edi", "EH8 4AH", "CD")
	if err != nil {
		t.Fatal(err)
	}
	if tu.Get("city") != "Edi" {
		t.Errorf("Get(city) = %q", tu.Get("city"))
	}
	tu.Set("city", "Ldn")
	if tu.Get("city") != "Ldn" {
		t.Error("Set did not stick")
	}
	if tu.At(0) != "Bob" {
		t.Error("At(0) wrong")
	}
	if _, err := NewTuple(s, "too", "few"); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestMustTuplePanics(t *testing.T) {
	s := custSchema(t)
	defer func() {
		if recover() == nil {
			t.Fatal("MustTuple did not panic")
		}
	}()
	MustTuple(s, "only-one")
}

func TestTupleFromMap(t *testing.T) {
	s := custSchema(t)
	tu, err := TupleFromMap(s, map[string]string{"FN": "Bob", "zip": "EH8 4AH"})
	if err != nil {
		t.Fatal(err)
	}
	if tu.Get("FN") != "Bob" || tu.Get("zip") != "EH8 4AH" {
		t.Error("values not mapped")
	}
	if !tu.Get("LN").IsNull() {
		t.Error("absent attribute not null")
	}
	if _, err := TupleFromMap(s, map[string]string{"bogus": "x"}); err == nil {
		t.Error("unknown key accepted")
	}
}

func TestTupleCloneIndependence(t *testing.T) {
	s := custSchema(t)
	orig := MustTuple(s, "Bob", "Brady", "020", "079172485", "2", "501 Elm St", "Edi", "EH8 4AH", "CD")
	cp := orig.Clone()
	cp.Set("FN", "Robert")
	if orig.Get("FN") != "Bob" {
		t.Fatal("Clone shares storage with original")
	}
	if !cp.Equal(cp.Clone()) {
		t.Fatal("clone of clone differs")
	}
}

func TestTupleEqualAndDiff(t *testing.T) {
	s := custSchema(t)
	a := MustTuple(s, "Bob", "Brady", "020", "079172485", "2", "501 Elm St", "Edi", "EH8 4AH", "CD")
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clones unequal")
	}
	b.Set("AC", "131")
	b.Set("FN", "Robert")
	if a.Equal(b) {
		t.Fatal("modified tuple equal")
	}
	diff := a.DiffAttrs(b)
	if len(diff) != 2 || diff[0] != "AC" || diff[1] != "FN" {
		t.Fatalf("DiffAttrs = %v", diff)
	}
}

func TestTupleProjectAndMap(t *testing.T) {
	s := custSchema(t)
	tu := MustTuple(s, "Bob", "Brady", "020", "079172485", "2", "501 Elm St", "Edi", "EH8 4AH", "CD")
	p := tu.Project([]string{"zip", "AC"})
	if len(p) != 2 || p[0] != "EH8 4AH" || p[1] != "020" {
		t.Fatalf("Project = %v", p)
	}
	m := tu.Map()
	if m["city"] != "Edi" || len(m) != 9 {
		t.Fatalf("Map = %v", m)
	}
	if !strings.Contains(tu.String(), "city=Edi") {
		t.Errorf("String = %q", tu.String())
	}
}

// ProjectAt is the position-resolved sibling of Project: same values.
func TestTupleProjectAt(t *testing.T) {
	s := custSchema(t)
	tu := MustTuple(s, "Bob", "Brady", "020", "079172485", "2", "501 Elm St", "Edi", "EH8 4AH", "CD")
	names := []string{"zip", "AC", "FN"}
	positions := make([]int, len(names))
	for i, n := range names {
		positions[i] = s.MustIndex(n)
	}
	want := tu.Project(names)
	if got := tu.ProjectAt(positions); !got.Equal(want) {
		t.Fatalf("ProjectAt = %v, want %v", got, want)
	}
}
