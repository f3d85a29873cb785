package master

import (
	"errors"
	"slices"
	"testing"

	"cerfix/internal/rule"
	"cerfix/internal/schema"
	"cerfix/internal/storage"
	"cerfix/internal/value"
)

func personSchema(t *testing.T) *schema.Schema {
	t.Helper()
	return schema.MustNew("PERSON",
		schema.Str("FN"), schema.Str("LN"), schema.Str("AC"),
		schema.Str("Hphn"), schema.Str("Mphn"), schema.Str("str"),
		schema.Str("city"), schema.Str("zip"))
}

func custSchema(t *testing.T) *schema.Schema {
	t.Helper()
	return schema.MustNew("CUST",
		schema.Str("FN"), schema.Str("LN"), schema.Str("AC"), schema.Str("phn"),
		schema.Str("type"), schema.Str("str"), schema.Str("city"), schema.Str("zip"),
		schema.Str("item"))
}

func demoStore(t *testing.T) *Store {
	t.Helper()
	m := New(personSchema(t))
	rows := [][]value.V{
		{"Robert", "Brady", "131", "6884563", "079172485", "501 Elm St", "Edi", "EH8 4AH"},
		{"Mark", "Smith", "020", "6884563", "075568485", "20 Baker St", "Ldn", "NW1 6XE"},
		{"Robert", "Brady", "131", "9999999", "079172485", "501 Elm St", "Edi", "EH8 4AH"},
	}
	for _, r := range rows {
		if _, err := m.InsertValues(r...); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func TestLookup(t *testing.T) {
	m := demoStore(t)
	got := m.Lookup([]string{"zip"}, value.List{"EH8 4AH"})
	if len(got) != 2 {
		t.Fatalf("Lookup = %d rows", len(got))
	}
	if got = m.Lookup([]string{"zip"}, value.List{"none"}); len(got) != 0 {
		t.Fatalf("phantom rows: %v", got)
	}
}

func mustParse(t *testing.T, line string) *rule.Rule {
	t.Helper()
	r, err := rule.Parse(line)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestUniqueRHS(t *testing.T) {
	m := demoStore(t)
	// Both EH8 4AH tuples agree on AC=131: Unique.
	rhs, witness, st := m.UniqueRHS([]string{"zip"}, value.List{"EH8 4AH"}, []string{"AC"})
	if st != Unique {
		t.Fatalf("status = %v", st)
	}
	if len(rhs) != 1 || rhs[0] != "131" {
		t.Fatalf("rhs = %v", rhs)
	}
	if witness == 0 {
		t.Fatal("witness id missing")
	}
	// They disagree on Hphn: Conflict.
	_, _, st = m.UniqueRHS([]string{"zip"}, value.List{"EH8 4AH"}, []string{"Hphn"})
	if st != Conflict {
		t.Fatalf("status = %v, want Conflict", st)
	}
	// Unknown key: NoMatch.
	_, _, st = m.UniqueRHS([]string{"zip"}, value.List{"XX"}, []string{"AC"})
	if st != NoMatch {
		t.Fatalf("status = %v, want NoMatch", st)
	}
}

func TestUniqueRHSForRule(t *testing.T) {
	m := demoStore(t)
	cust := custSchema(t)
	r := mustParse(t, `phi4: match phn~Mphn set FN := FN when type = "2"`)
	input := schema.MustTuple(cust, "M.", "Smith", "020", "075568485", "2", "20 Baker St", "Ldn", "NW1 6XE", "DVD")
	rhs, _, st := m.UniqueRHSForRule(r, input)
	if st != Unique || rhs[0] != "Mark" {
		t.Fatalf("rhs = %v, status = %v", rhs, st)
	}
}

func TestPrepareForRules(t *testing.T) {
	m := demoStore(t)
	rs := rule.MustSet(
		mustParse(t, `a: match zip~zip set AC := AC`),
		mustParse(t, `b: match AC~AC, phn~Hphn set str := str`),
	)
	if err := m.PrepareForRules(rs); err != nil {
		t.Fatal(err)
	}
	want := []string{"AC,Hphn->str", "zip->AC"}
	if got := m.RegisteredRuleIndexes(); !slices.Equal(got, want) {
		t.Errorf("registered = %v, want %v", got, want)
	}
	// Idempotent.
	if err := m.PrepareForRules(rs); err != nil {
		t.Fatal(err)
	}
	if got := m.RegisteredRuleIndexes(); !slices.Equal(got, want) {
		t.Errorf("after a second run registered = %v, want %v", got, want)
	}
	// An unknown master attribute, on either side, is an error and
	// registers nothing.
	for _, line := range []string{
		`c: match zip~bogus set AC := AC`,
		`d: match zip~zip set AC := bogus`,
	} {
		bad := rule.MustSet(mustParse(t, `e: match FN~FN set LN := LN`), mustParse(t, line))
		if err := m.PrepareForRules(bad); err == nil {
			t.Fatalf("%s: bad rule index accepted", line)
		}
		if got := m.RegisteredRuleIndexes(); !slices.Equal(got, want) {
			t.Fatalf("%s: registered = %v after the error, want %v", line, got, want)
		}
	}
}

func TestStatusString(t *testing.T) {
	if NoMatch.String() != "no-match" || Unique.String() != "unique" || Conflict.String() != "conflict" {
		t.Fatal("status names wrong")
	}
}

func TestStats(t *testing.T) {
	m := demoStore(t)
	s := m.Stats()
	if s.Tuples != 3 || s.Attributes != 8 || s.Schema == "" {
		t.Fatalf("Stats = %+v", s)
	}
}

func TestGet(t *testing.T) {
	m := demoStore(t)
	id, err := m.InsertValues("A", "B", "1", "2", "3", "4", "5", "6")
	if err != nil {
		t.Fatal(err)
	}
	tu, ok := m.Get(id)
	if !ok || tu.Get("FN") != "A" {
		t.Fatal("Get failed")
	}
}

// A snapshot keeps answering from its frozen state — on both access
// paths — while the live store absorbs inserts, and vice versa:
// the two share no mutable structures.
func TestSnapshotIsolation(t *testing.T) {
	m := demoStore(t)
	rs := rule.MustSet(mustParse(t, `r1: match zip~zip set AC := AC`))
	if err := m.PrepareForRules(rs); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if snap.Len() != 3 || snap.Mode() != m.Mode() {
		t.Fatalf("snapshot: len %d mode %v", snap.Len(), snap.Mode())
	}

	// Insert a conflicting row into the live store: same zip, new AC.
	if _, err := m.InsertValues("Eve", "Jones", "999", "1", "2", "3 Elm", "Edi", "EH8 4AH"); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []LookupMode{ModeRuleIndex, ModeScan} {
		snap.SetMode(mode)
		rhs, _, status := snap.UniqueRHS([]string{"zip"}, value.List{"EH8 4AH"}, []string{"AC"})
		if status != Unique || rhs[0] != "131" {
			t.Fatalf("mode %v: snapshot sees live insert: %v %v", mode, rhs, status)
		}
	}
	// The live store, by contrast, now conflicts.
	if _, _, status := m.UniqueRHS([]string{"zip"}, value.List{"EH8 4AH"}, []string{"AC"}); status != Conflict {
		t.Fatalf("live store status = %v, want Conflict", status)
	}

	// Snapshots are read-only views: writes are rejected and nothing
	// leaks into either side.
	if !snap.Frozen() {
		t.Fatal("snapshot not marked frozen")
	}
	if _, err := snap.InsertValues("Zed", "Hall", "111", "1", "2", "9 Oak", "Ldn", "ZZ1 1ZZ"); !errors.Is(err, storage.ErrFrozen) {
		t.Fatalf("snapshot insert: err = %v, want ErrFrozen", err)
	}
	if m.Len() != 4 || snap.Len() != 3 {
		t.Fatalf("lens = live %d snap %d", m.Len(), snap.Len())
	}
}
