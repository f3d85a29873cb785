package master

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
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
			rhs, _, st, ok := view.Handle(xm, bm).Lookup(key)
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
		gotRHS, gotWitness, gotStatus, ok := h.Lookup(key)
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
	if _, _, st, _ := snapH.Lookup(value.List{"ZZ9 9ZZ"}); st != NoMatch {
		t.Fatalf("snapshot handle sees post-snapshot row: %v", st)
	}
	if _, err := m.InsertValues("Other", "Person", "888", "1", "2", "3", "4", "ZZ9 9ZZ"); err != nil {
		t.Fatal(err)
	}
	if _, _, st, _ := live.Lookup(value.List{"ZZ9 9ZZ"}); st != Conflict {
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
	if _, _, _, ok := h.Lookup(value.List{"EH8 4AH"}); ok {
		t.Fatal("handle claims an index that was never built")
	}
	snapH := m.Snapshot().Handle([]string{"zip"}, []string{"AC"})
	if _, _, _, ok := snapH.Lookup(value.List{"EH8 4AH"}); ok {
		t.Fatal("snapshot handle claims an index that was never built")
	}
	// Once built, the same live handle resolves on its next probe.
	rs := rule.MustSet(mustParse(t, `r1: match zip~zip set AC := AC`))
	if err := m.PrepareForRules(rs); err != nil {
		t.Fatal(err)
	}
	rhs, _, st, ok := h.Lookup(value.List{"EH8 4AH"})
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

// TestRuleIndexExactUnderCollisions replays FuzzRuleIndex's seed corpus
// with every key hashed to one value, so all keys of an index share one
// shard and one probe chain. Answers must still equal the scan's, on
// the live store and the snapshot: a hit compares every match value
// with the witness row, so no answer may come from the hash alone.
func TestRuleIndexExactUnderCollisions(t *testing.T) {
	testHashHook = func(uint64) uint64 { return 0x5eed }
	defer func() { testHashHook = nil }()
	paths, err := filepath.Glob("testdata/fuzz/FuzzRuleIndex/*")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no FuzzRuleIndex corpus: %v", err)
	}
	for _, p := range paths {
		t.Run(filepath.Base(p), func(t *testing.T) {
			checkRuleIndex(t, readCorpusBytes(t, p))
		})
	}
	// The hook reached the index: one shard holds every key.
	m := demoStore(t)
	if err := m.PrepareForRules(rule.MustSet(mustParse(t, `r1: match zip~zip set AC := AC`))); err != nil {
		t.Fatal(err)
	}
	keys := m.MemStats().RuleIndexKeys
	for _, sh := range &m.ruleIdx.indexes[0].shards {
		if sh.n != 0 && sh.n != keys {
			t.Fatalf("a shard holds %d of %d keys under a constant hash", sh.n, keys)
		}
	}
}

// readCorpusBytes decodes a one-value []byte seed file of a native
// fuzz corpus.
func readCorpusBytes(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a one-value corpus file", path)
	}
	lit, ok := strings.CutPrefix(lines[1], "[]byte(")
	if lit, ok = strings.CutSuffix(lit, ")"); !ok {
		t.Fatalf("%s: not a []byte value", path)
	}
	s, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}

// TestRuleIndexSnapshotAcrossGrowth takes snapshots, then grows every
// shard of the live indexes and flips conflict bits on keys the
// snapshots already answer. Each snapshot must keep answering as it
// did at capture, through UniqueRHS and through handles, and the live
// store must answer as the scan does.
func TestRuleIndexSnapshotAcrossGrowth(t *testing.T) {
	m := New(personSchema(t))
	rs := rule.MustSet(
		mustParse(t, `r1: match zip~zip set AC := AC, city := city`),
		mustParse(t, `r2: match AC~AC set city := city`),
	)
	insert := func(zip, ac, city string) {
		t.Helper()
		if _, err := m.InsertValues("F", "L", value.V(ac), "1", "2", "3", value.V(city), value.V(zip)); err != nil {
			t.Fatal(err)
		}
	}
	const base, grown = 64, 4000
	for i := 0; i < base; i++ {
		insert(fmt.Sprintf("Z%d", i), fmt.Sprintf("A%d", i%8), fmt.Sprintf("C%d", i%8))
	}
	if err := m.PrepareForRules(rs); err != nil {
		t.Fatal(err)
	}
	type probe struct {
		xm, bm []string
		key    value.List
	}
	var probes []probe
	for i := 0; i < grown; i += 7 {
		probes = append(probes, probe{[]string{"zip"}, []string{"AC", "city"}, value.List{value.V(fmt.Sprintf("Z%d", i))}})
	}
	for i := 0; i < 12; i++ {
		probes = append(probes, probe{[]string{"AC"}, []string{"city"}, value.List{value.V(fmt.Sprintf("A%d", i))}})
	}
	answers := func(view *Store) []string {
		out := make([]string, 0, 2*len(probes))
		for _, p := range probes {
			rhs, w, st := view.UniqueRHS(p.xm, p.key, p.bm)
			out = append(out, fmt.Sprint(rhs, w, st))
			rhs, w, st, _ = view.Handle(p.xm, p.bm).Lookup(p.key)
			out = append(out, fmt.Sprint(rhs, w, st))
		}
		return out
	}
	scanned := func(view *Store) []string {
		view.SetMode(ModeScan)
		defer view.SetMode(ModeRuleIndex)
		out := make([]string, 0, 2*len(probes))
		for _, p := range probes {
			rhs, w, st := view.UniqueRHS(p.xm, p.key, p.bm)
			out = append(out, fmt.Sprint(rhs, w, st), fmt.Sprint(rhs, w, st))
		}
		return out
	}

	first := m.Snapshot()
	atFirst := answers(first)
	for i := base; i < grown/2; i++ {
		insert(fmt.Sprintf("Z%d", i), fmt.Sprintf("A%d", i%8), fmt.Sprintf("C%d", i%8))
	}
	second := m.Snapshot()
	atSecond := answers(second)
	for i := grown / 2; i < grown; i++ {
		insert(fmt.Sprintf("Z%d", i), fmt.Sprintf("A%d", i%8), fmt.Sprintf("C%d", i%8))
	}
	// Flip bits on keys both snapshots answer: a zip whose AC and a
	// zip whose city disagree, and an area code whose city does.
	insert("Z0", "B0", "C0")
	insert("Z7", "A7", "D7")
	insert("Z1001", "A1", "D1")
	insert("Z42", "A2", "C2") // agrees: no bit
	insert("X", "A3", "D3")
	for _, ix := range m.ruleIdx.indexes {
		if !slices.Equal(ix.matchAttrs, []string{"zip"}) {
			continue
		}
		for i, sh := range &ix.shards {
			if len(sh.slots) <= minSlots {
				t.Fatalf("zip index shard %d has %d slots: it never grew", i, len(sh.slots))
			}
		}
	}

	for _, c := range []struct {
		name string
		view *Store
		want []string
	}{
		{"first snapshot", first, atFirst},
		{"second snapshot", second, atSecond},
	} {
		got := answers(c.view)
		if !slices.Equal(got, c.want) {
			t.Fatalf("%s: answers moved after capture", c.name)
		}
		if scan := scanned(c.view); !slices.Equal(got, scan) {
			t.Fatalf("%s: index answers differ from its scan", c.name)
		}
	}
	got, want := answers(m), scanned(m)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("live %v: index %s, scan %s", probes[i/2].key, got[i], want[i])
		}
	}
	if slices.Equal(got, atSecond) {
		t.Fatal("live answers never moved: the inserts did not reach the index")
	}
}
