package storage

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestCSVRoundTrip(t *testing.T) {
	sch := personSchema(t)
	tb := NewTable(sch)
	fill(t, tb)
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	tb2 := NewTable(sch)
	if err := tb2.ReadCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if tb2.Len() != 3 {
		t.Fatalf("Len = %d", tb2.Len())
	}
	a, b := tb.All(), tb2.All()
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("row %d mismatch: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestCSVQuotedValues(t *testing.T) {
	sch := personSchema(t)
	tb := NewTable(sch)
	if _, err := tb.InsertValues(`comma, inside`, `quote "q"`, "new\nline"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	tb2 := NewTable(sch)
	if err := tb2.ReadCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := tb2.All()[0]
	if got.Get("FN") != "comma, inside" || got.Get("LN") != `quote "q"` || got.Get("zip") != "new\nline" {
		t.Fatalf("quoted round trip: %v", got)
	}
}

func TestCSVColumnReordering(t *testing.T) {
	sch := personSchema(t)
	tb := NewTable(sch)
	src := "zip,FN,LN\nEH8 4AH,Robert,Brady\n"
	if err := tb.ReadCSV(strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
	got := tb.All()[0]
	if got.Get("FN") != "Robert" || got.Get("zip") != "EH8 4AH" {
		t.Fatalf("reordered columns mismapped: %v", got)
	}
}

func TestCSVHeaderErrors(t *testing.T) {
	sch := personSchema(t)
	cases := []string{
		"bogus,FN,LN\na,b,c\n",
		"FN,FN,LN\na,b,c\n",
		"FN,LN\na,b\n",
		"",
	}
	for _, src := range cases {
		tb := NewTable(sch)
		if err := tb.ReadCSV(strings.NewReader(src)); err == nil {
			t.Errorf("header %q accepted", strings.SplitN(src, "\n", 2)[0])
		}
	}
}

func TestCSVFileRoundTrip(t *testing.T) {
	sch := personSchema(t)
	tb := NewTable(sch)
	fill(t, tb)
	path := filepath.Join(t.TempDir(), "person.csv")
	if err := tb.SaveCSVFile(path); err != nil {
		t.Fatal(err)
	}
	tb2 := NewTable(sch)
	if err := tb2.LoadCSVFile(path); err != nil {
		t.Fatal(err)
	}
	if tb2.Len() != tb.Len() {
		t.Fatalf("Len = %d, want %d", tb2.Len(), tb.Len())
	}
	if err := tb2.LoadCSVFile(filepath.Join(t.TempDir(), "missing.csv")); err == nil {
		t.Fatal("missing file accepted")
	}
}
