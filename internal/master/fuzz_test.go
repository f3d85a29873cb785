package master

import (
	"fmt"
	"slices"
	"testing"

	"cerfix/internal/rule"
	"cerfix/internal/value"
)

// fuzzAlphabet lists, per personSchema column, the values a fuzzed
// master draws from. Values 0 and 1 spell demoStore's rows, and values
// 2 and 3 the inserts of TestRuleIndexIncrementalInsert, so the seed
// corpus replays those tests.
var fuzzAlphabet = [][]value.V{
	{"Robert", "Mark", "New", "Other"},                // FN
	{"Brady", "Smith", "Person", "Kwan"},              // LN
	{"131", "020", "999", "888"},                      // AC
	{"6884563", "9999999", "1", "8359021"},            // Hphn
	{"079172485", "075568485", "2", "077031368"},      // Mphn
	{"501 Elm St", "20 Baker St", "3", "8 Deansgate"}, // str
	{"Edi", "Ldn", "4", "Mnc"},                        // city
	{"EH8 4AH", "NW1 6XE", "ZZ9 9ZZ", "M3 4LY"},       // zip
}

// fuzzMatchLists is the pool a fuzzed rule draws its Xm from: few
// lists, so rules share them and their Bm lists overlap on one index.
var fuzzMatchLists = [][]string{{"zip"}, {"AC"}, {"AC", "Hphn"}, {"Mphn"}}

// fuzzBytes reads the fuzz input as a stream of small choices; an
// exhausted stream reads as zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0])
	*b = (*b)[1:]
	return v % n
}

// FuzzRuleIndex holds the grouped rule index to the scan path. The
// bytes choose, in order:
//
//   - k, the values per column (2–4), so match keys collide;
//   - two rule batches (1–4 rules, then 0–2), each rule an Xm from
//     fuzzMatchLists and a Bm of 1–3 other attributes, so Bm lists
//     overlap on a shared Xm;
//   - 0–5 rows loaded before the first batch is registered, then 0–9
//     inserts, the insert count after which a snapshot is taken, and
//     the one after which the second batch is registered (a new Bm
//     attribute on an existing Xm grows its U);
//   - each row's values, one byte per column;
//   - last, 0–400 filler rows (an even count) of fresh values, half loaded first and
//     half inserted right after the snapshot, so shards grow, live
//     after the snapshot too, and the alphabet's keys sit inside probe
//     chains. Drawn last, it reads 0 on an input that ends before it.
//
// For every pair of either batch and every key over the alphabet,
// UniqueRHS and the pair's RuleHandle on ModeRuleIndex must equal
// UniqueRHS on ModeScan in status, witness and values, on the live
// store and on the snapshot.
func FuzzRuleIndex(f *testing.F) {
	f.Fuzz(checkRuleIndex)
}

// checkRuleIndex is FuzzRuleIndex's body.
func checkRuleIndex(t *testing.T, data []byte) {
	b := fuzzBytes(data)
	k := 2 + b.next(3)
	var batches [2][]*rule.Rule
	sizes := [2]int{1 + b.next(4), b.next(3)}
	for bi, n := range sizes {
		for i := 0; i < n; i++ {
			xm := fuzzMatchLists[b.next(len(fuzzMatchLists))]
			r := &rule.Rule{ID: fmt.Sprintf("r%d_%d", bi, i)}
			for _, a := range xm {
				r.Match = append(r.Match, rule.Correspondence{Input: a, Master: a})
			}
			for j, nb := 0, 1+b.next(3); j < nb; j++ {
				a := personAttrs[b.next(len(personAttrs))]
				if !slices.Contains(xm, a) && !slices.ContainsFunc(r.Set, func(c rule.Correspondence) bool { return c.Master == a }) {
					r.Set = append(r.Set, rule.Correspondence{Input: a, Master: a})
				}
			}
			if len(r.Set) == 0 {
				r.Set = []rule.Correspondence{{Input: "FN", Master: "FN"}}
			}
			batches[bi] = append(batches[bi], r)
		}
	}
	loaded, inserts := b.next(6), b.next(10)
	snapAt, secondAt := b.next(inserts+1), b.next(inserts+1)
	rows := make([][]value.V, loaded+inserts)
	for r := range rows {
		rows[r] = make([]value.V, len(fuzzAlphabet))
		for i := range rows[r] {
			rows[r][i] = fuzzAlphabet[i][b.next(k)]
		}
	}
	fill := 2 * b.next(201)

	m := New(personSchema(t))
	filler := func(n int) {
		for i := 0; i < n; i++ {
			vals := make([]value.V, len(personAttrs))
			for j := range vals {
				vals[j] = value.V(fmt.Sprintf("fill%d.%d", m.Len(), j))
			}
			if _, err := m.InsertValues(vals...); err != nil {
				t.Fatal(err)
			}
		}
	}
	filler(fill / 2)
	for _, r := range rows[:loaded] {
		if _, err := m.InsertValues(r...); err != nil {
			t.Fatal(err)
		}
	}
	register := func(rules []*rule.Rule) {
		if err := m.PrepareForRules(rule.MustSet(rules...)); err != nil {
			t.Fatal(err)
		}
	}
	register(batches[0])
	var snap *Store
	for i := 0; i <= inserts; i++ {
		if i == snapAt {
			snap = m.Snapshot()
			filler(fill - fill/2)
		}
		if i == secondAt && len(batches[1]) > 0 {
			register(append(slices.Clone(batches[0]), batches[1]...))
		}
		if i < inserts {
			if _, err := m.InsertValues(rows[loaded+i]...); err != nil {
				t.Fatal(err)
			}
		}
	}

	for _, r := range append(slices.Clone(batches[0]), batches[1]...) {
		xm, bm := r.MatchMasterAttrs(), r.SetMasterAttrs()
		for _, key := range fuzzKeys(xm, k) {
			for name, view := range map[string]*Store{"live": m, "snapshot": snap} {
				label := fmt.Sprintf("%s %v=%v -> %v", name, xm, key, bm)
				view.SetMode(ModeScan)
				wantRHS, wantWitness, wantStatus := view.UniqueRHS(xm, key, bm)
				view.SetMode(ModeRuleIndex)
				gotRHS, gotWitness, gotStatus := view.UniqueRHS(xm, key, bm)
				if gotStatus != wantStatus || gotWitness != wantWitness || !gotRHS.Equal(wantRHS) {
					t.Fatalf("%s: rule index (%v,%d,%v) != scan (%v,%d,%v)",
						label, gotRHS, gotWitness, gotStatus, wantRHS, wantWitness, wantStatus)
				}
				hRHS, hWitness, hStatus, ok := view.Handle(xm, bm).Lookup(key)
				if !ok {
					continue // registered after this view: UniqueRHS took the group path
				}
				if hStatus != wantStatus || hWitness != wantWitness || !hRHS.Equal(wantRHS) {
					t.Fatalf("%s: handle (%v,%d,%v) != scan (%v,%d,%v)",
						label, hRHS, hWitness, hStatus, wantRHS, wantWitness, wantStatus)
				}
			}
		}
	}
}

// personAttrs names personSchema's columns in order.
var personAttrs = []string{"FN", "LN", "AC", "Hphn", "Mphn", "str", "city", "zip"}

// fuzzKeys lists every key over the first k alphabet values of the
// match attributes, plus one key no master tuple can carry.
func fuzzKeys(attrs []string, k int) []value.List {
	keys := []value.List{{}}
	for _, a := range attrs {
		col := fuzzAlphabet[slices.Index(personAttrs, a)][:k]
		var next []value.List
		for _, key := range keys {
			for _, v := range col {
				next = append(next, append(slices.Clone(key), v))
			}
		}
		keys = next
	}
	absent := make(value.List, len(attrs))
	for i := range absent {
		absent[i] = "absent"
	}
	return append(keys, absent)
}
