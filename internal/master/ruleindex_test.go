package master

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"cerfix/internal/rule"
	"cerfix/internal/value"
)

func TestLookupModeStrings(t *testing.T) {
	if ModeRuleIndex.String() != "rule-index" ||
		ModeScan.String() != "scan" {
		t.Fatal("mode names wrong")
	}
}

func TestSetModeAndUseIndexes(t *testing.T) {
	m := demoStore(t)
	if m.Mode() != ModeRuleIndex {
		t.Fatalf("default mode = %v", m.Mode())
	}
	m.SetMode(ModeScan)
	if m.Mode() != ModeScan {
		t.Fatal("SetMode lost")
	}
}

// Both access paths must return identical UniqueRHS results.
func TestModesAgree(t *testing.T) {
	m := demoStore(t)
	rs := rule.MustSet(
		mustParse(t, `r1: match zip~zip set AC := AC`),
		mustParse(t, `r2: match zip~zip set Hphn := Hphn`),
	)
	if err := m.PrepareForRules(rs); err != nil {
		t.Fatal(err)
	}
	keys := []value.List{{"EH8 4AH"}, {"NW1 6XE"}, {"nothing"}}
	rhsSets := [][]string{{"AC"}, {"Hphn"}}
	for _, key := range keys {
		for _, rhs := range rhsSets {
			var got []string
			var statuses []LookupStatus
			for _, mode := range []LookupMode{ModeRuleIndex, ModeScan} {
				m.SetMode(mode)
				vals, _, st := m.UniqueRHS([]string{"zip"}, key, rhs)
				got = append(got, fmt.Sprint(vals))
				statuses = append(statuses, st)
			}
			if got[0] != got[1] {
				t.Fatalf("key %v rhs %v: values diverge across modes: %v", key, rhs, got)
			}
			if statuses[0] != statuses[1] {
				t.Fatalf("key %v rhs %v: statuses diverge: %v", key, rhs, statuses)
			}
		}
	}
}

// The rule index is maintained incrementally on inserts.
func TestRuleIndexIncrementalInsert(t *testing.T) {
	m := demoStore(t)
	rs := rule.MustSet(mustParse(t, `r1: match zip~zip set AC := AC`))
	if err := m.PrepareForRules(rs); err != nil {
		t.Fatal(err)
	}
	// New zip appears after index build.
	if _, err := m.InsertValues("New", "Person", "999", "1", "2", "3", "4", "ZZ9 9ZZ"); err != nil {
		t.Fatal(err)
	}
	rhs, _, st := m.UniqueRHS([]string{"zip"}, value.List{"ZZ9 9ZZ"}, []string{"AC"})
	if st != Unique || rhs[0] != "999" {
		t.Fatalf("incremental insert missed: %v %v", rhs, st)
	}
	// A conflicting insert flips the key to Conflict.
	if _, err := m.InsertValues("Other", "Person", "888", "1", "2", "3", "4", "ZZ9 9ZZ"); err != nil {
		t.Fatal(err)
	}
	_, _, st = m.UniqueRHS([]string{"zip"}, value.List{"ZZ9 9ZZ"}, []string{"AC"})
	if st != Conflict {
		t.Fatalf("conflict not detected incrementally: %v", st)
	}
}

// A composite key writes each value with its length, so rows whose
// (AC, Hphn) values concatenate to the same bytes are two keys: each
// answers its own FN, and neither reads as a conflict.
func TestRuleIndexKeysInjective(t *testing.T) {
	m := New(personSchema(t))
	rs := rule.MustSet(mustParse(t, `r1: match AC~AC, Hphn~Hphn set FN := FN`))
	if err := m.PrepareForRules(rs); err != nil {
		t.Fatal(err)
	}
	if _, err := m.InsertValues("Ann", "Lee", "12", "3", "1", "2", "3", "ZZ1"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.InsertValues("Bob", "Lee", "1", "23", "1", "2", "3", "ZZ1"); err != nil {
		t.Fatal(err)
	}
	xm, bm := []string{"AC", "Hphn"}, []string{"FN"}
	want := map[string]value.List{"Ann": {"12", "3"}, "Bob": {"1", "23"}}
	for _, view := range []*Store{m, m.Snapshot()} {
		for fn, key := range want {
			rhs, _, st := view.UniqueRHS(xm, key, bm)
			if st != Unique || rhs[0] != value.V(fn) {
				t.Fatalf("frozen %v: key %v: UniqueRHS = %v %v, want unique %s", view.Frozen(), key, rhs, st, fn)
			}
			rhs, _, st, ok := view.Handle(xm, bm).Lookup(encodeProbe(key))
			if !ok || st != Unique || rhs[0] != value.V(fn) {
				t.Fatalf("frozen %v: key %v: handle = %v %v ok=%v, want unique %s", view.Frozen(), key, rhs, st, ok, fn)
			}
		}
		if n := view.MemStats().RuleIndexKeys; n != 2 {
			t.Fatalf("frozen %v: %d index keys, want 2", view.Frozen(), n)
		}
	}
}

// An unregistered (ad-hoc) pair falls back to the group path.
func TestRuleIndexFallback(t *testing.T) {
	m := demoStore(t)
	// No PrepareForRules at all: mode is rule-index but nothing is
	// registered.
	rhs, _, st := m.UniqueRHS([]string{"zip"}, value.List{"EH8 4AH"}, []string{"AC"})
	if st != Unique || rhs[0] != "131" {
		t.Fatalf("fallback path broken: %v %v", rhs, st)
	}
}

func TestRegisteredRuleIndexes(t *testing.T) {
	m := demoStore(t)
	rs := rule.MustSet(
		mustParse(t, `r1: match zip~zip set AC := AC`),
		mustParse(t, `r2: match AC~AC set city := city`),
		mustParse(t, `r3: match zip~zip set city := city, AC := AC`),
	)
	if err := m.PrepareForRules(rs); err != nil {
		t.Fatal(err)
	}
	// One index per master match list, listing U in registration order.
	regs := m.RegisteredRuleIndexes()
	if len(regs) != 2 {
		t.Fatalf("registered = %v", regs)
	}
	if regs[0] != "AC->city" || regs[1] != "zip->AC,city" {
		t.Fatalf("registered = %v", regs)
	}
}

// RegisteredRuleIndexes promises sorted output; the registry keeps
// registration order, so pin the ordering with enough indexes, built
// in unsorted order, that an unsorted implementation cannot pass by
// accident. 56 rules over 8 master match lists build 8 indexes.
func TestRegisteredRuleIndexesSorted(t *testing.T) {
	m := demoStore(t)
	attrs := []string{"AC", "Hphn", "Mphn", "city", "str", "zip", "FN", "LN"}
	var rules []*rule.Rule
	for i, a := range attrs {
		for j, b := range attrs {
			if i == j {
				continue
			}
			rules = append(rules, mustParse(t, fmt.Sprintf("s%d_%d: match %s~%s set %s := %s", i, j, a, a, b, b)))
		}
	}
	rs := rule.MustSet(rules...)
	if err := m.PrepareForRules(rs); err != nil {
		t.Fatal(err)
	}
	regs := m.RegisteredRuleIndexes()
	if len(regs) != len(attrs) {
		t.Fatalf("registered %d indexes, want %d: %v", len(regs), len(attrs), regs)
	}
	if !sort.StringsAreSorted(regs) {
		t.Fatalf("RegisteredRuleIndexes not sorted: %v", regs)
	}
	// Stable across calls.
	for i := 0; i < 5; i++ {
		again := m.RegisteredRuleIndexes()
		if !slices.Equal(regs, again) {
			t.Fatalf("call %d returned a different order:\n%v\n%v", i, regs, again)
		}
	}
}

// encodeProbe encodes a probe key as the compiled chase does (core's
// Chaser.encodeKey): AppendKey of each value in order.
func encodeProbe(key value.List) []byte {
	var kb []byte
	for _, v := range key {
		kb = AppendKey(kb, v)
	}
	return kb
}

// The pre-resolved handle must agree with Store.UniqueRHS on every
// outcome — present keys, absent keys, conflicts — on live stores and
// frozen snapshots, across live mutation.
func TestRuleHandleAgreesWithUniqueRHS(t *testing.T) {
	m := demoStore(t)
	rs := rule.MustSet(mustParse(t, `r1: match zip~zip set AC := AC`))
	if err := m.PrepareForRules(rs); err != nil {
		t.Fatal(err)
	}
	match, rhs := []string{"zip"}, []string{"AC"}
	probe := func(t *testing.T, st *Store, h *RuleHandle, key value.List) {
		t.Helper()
		wantRHS, wantWitness, wantStatus := st.UniqueRHS(match, key, rhs)
		gotRHS, gotWitness, gotStatus, ok := h.Lookup(encodeProbe(key))
		if !ok {
			t.Fatalf("key %v: handle reports no index", key)
		}
		if gotStatus != wantStatus || gotWitness != wantWitness || fmt.Sprint(gotRHS) != fmt.Sprint(wantRHS) {
			t.Fatalf("key %v: handle (%v,%d,%v) != store (%v,%d,%v)",
				key, gotRHS, gotWitness, gotStatus, wantRHS, wantWitness, wantStatus)
		}
	}
	keys := []value.List{{"EH8 4AH"}, {"NW1 6XE"}, {"nothing"}}

	live := m.Handle(match, rhs)
	snap := m.Snapshot()
	snapH := snap.Handle(match, rhs)
	for _, k := range keys {
		probe(t, m, live, k)
		probe(t, snap, snapH, k)
	}

	// Live mutation after the snapshot: the live handle must see the
	// new row and the conflict flip (the COW registry swap must not
	// strand it on a stale index); the snapshot handle keeps its view.
	if _, err := m.InsertValues("New", "Person", "999", "1", "2", "3", "4", "ZZ9 9ZZ"); err != nil {
		t.Fatal(err)
	}
	probe(t, m, live, value.List{"ZZ9 9ZZ"})
	// The snapshot's frozen index lacks the new key.
	if _, _, st, _ := snapH.Lookup(encodeProbe(value.List{"ZZ9 9ZZ"})); st != NoMatch {
		t.Fatalf("snapshot handle sees post-snapshot row: %v", st)
	}
	if _, err := m.InsertValues("Other", "Person", "888", "1", "2", "3", "4", "ZZ9 9ZZ"); err != nil {
		t.Fatal(err)
	}
	if _, _, st, _ := live.Lookup(encodeProbe(value.List{"ZZ9 9ZZ"})); st != Conflict {
		t.Fatalf("live handle missed incremental conflict: %v", st)
	}
	for _, k := range keys {
		probe(t, m, live, k)
		probe(t, snap, snapH, k)
	}
}

// A handle for an unregistered pair reports ok=false so callers fall
// back to the group-verification path.
func TestRuleHandleUnregisteredPair(t *testing.T) {
	m := demoStore(t)
	h := m.Handle([]string{"zip"}, []string{"AC"})
	if _, _, _, ok := h.Lookup(encodeProbe(value.List{"EH8 4AH"})); ok {
		t.Fatal("handle claims an index that was never built")
	}
	snapH := m.Snapshot().Handle([]string{"zip"}, []string{"AC"})
	if _, _, _, ok := snapH.Lookup(encodeProbe(value.List{"EH8 4AH"})); ok {
		t.Fatal("snapshot handle claims an index that was never built")
	}
	// Once built, the same live handle resolves on its next probe.
	rs := rule.MustSet(mustParse(t, `r1: match zip~zip set AC := AC`))
	if err := m.PrepareForRules(rs); err != nil {
		t.Fatal(err)
	}
	rhs, _, st, ok := h.Lookup(encodeProbe(value.List{"EH8 4AH"}))
	if !ok || st != Unique || rhs[0] != "131" {
		t.Fatalf("live handle did not pick up the new index: %v %v ok=%v", rhs, st, ok)
	}
}

// Rebuilding after bulk table mutation reflects the new rows.
func TestPrepareRuleIndexesRebuild(t *testing.T) {
	m := demoStore(t)
	rs := rule.MustSet(mustParse(t, `r1: match zip~zip set AC := AC`))
	if err := m.PrepareForRules(rs); err != nil {
		t.Fatal(err)
	}
	// Bypass the Store: write to the table directly (as CSV bulk load
	// does), then rebuild.
	if _, err := m.Table().InsertValues("Bulk", "Row", "777", "1", "2", "3", "4", "BULK1"); err != nil {
		t.Fatal(err)
	}
	// Before rebuild the rule index does not know the key: NoMatch on
	// the index, which is authoritative for registered pairs.
	_, _, st := m.UniqueRHS([]string{"zip"}, value.List{"BULK1"}, []string{"AC"})
	if st != NoMatch {
		t.Fatalf("stale index returned %v", st)
	}
	m.PrepareRuleIndexes(rs)
	rhs, _, st := m.UniqueRHS([]string{"zip"}, value.List{"BULK1"}, []string{"AC"})
	if st != Unique || rhs[0] != "777" {
		t.Fatalf("rebuild missed: %v %v", rhs, st)
	}
}
