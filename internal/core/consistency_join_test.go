package core

import (
	"fmt"
	"reflect"
	"strconv"
	"testing"

	"cerfix/internal/dataset"
	"cerfix/internal/master"
	"cerfix/internal/pattern"
	"cerfix/internal/rule"
	"cerfix/internal/schema"
	"cerfix/internal/textutil"
	"cerfix/internal/value"
)

// choices reads a byte stream as a sequence of small choices; an
// exhausted stream reads as zeros.
type choices []byte

func (b *choices) next(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0])
	*b = (*b)[1:]
	return v % n
}

// randomChoices draws n choice bytes from rng.
func randomChoices(rng *textutil.RNG, n int) choices {
	b := make(choices, n)
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return b
}

// witnessWorld is an engine over a small generated world, with the
// number of values per column (its inputs draw from the same values).
type witnessWorld struct {
	eng *Engine
	k   int
}

// buildWitnessWorld builds a world from b: 2–5 input and 1–5 master
// string attributes, 2–4 values per column, 0–maxRows master rows and
// 2–maxRules rules. Each rule sets 1–2 input attributes, matches 1–3
// (input, master) pairs over the other ones, repeats allowed, and has
// 0–2 conditions with operators from ops.
func buildWitnessWorld(t testing.TB, b *choices, maxRows, maxRules int, ops []pattern.Op) witnessWorld {
	t.Helper()
	nIn, nM, k := 2+b.next(4), 1+b.next(5), 2+b.next(3)
	inAttrs := make([]schema.Attribute, nIn)
	for i := range inAttrs {
		inAttrs[i] = schema.Str(fmt.Sprintf("a%d", i))
	}
	mAttrs := make([]schema.Attribute, nM)
	for i := range mAttrs {
		mAttrs[i] = schema.Str(fmt.Sprintf("m%d", i))
	}
	val := func() value.V { return value.V(fmt.Sprintf("v%d", b.next(k))) }
	in := func(i int) string { return fmt.Sprintf("a%d", i) }
	mAttr := func() string { return fmt.Sprintf("m%d", b.next(nM)) }

	st := master.New(schema.MustNew("MD", mAttrs...))
	for r, n := 0, b.next(maxRows+1); r < n; r++ {
		vals := make(value.List, nM)
		for i := range vals {
			vals[i] = val()
		}
		if _, err := st.InsertValues(vals...); err != nil {
			t.Fatal(err)
		}
	}
	var rules []*rule.Rule
	for ri, n := 0, 2+b.next(maxRules-1); ri < n; ri++ {
		r := &rule.Rule{ID: fmt.Sprintf("r%d", ri)}
		off, nSet := b.next(nIn), 1+b.next(min(2, nIn-1))
		for j := 0; j < nSet; j++ {
			r.Set = append(r.Set, rule.Correspondence{Input: in((off + j) % nIn), Master: mAttr()})
		}
		for j, nMatch := 0, 1+b.next(3); j < nMatch; j++ {
			a := in((off + nSet + b.next(nIn-nSet)) % nIn)
			r.Match = append(r.Match, rule.Correspondence{Input: a, Master: mAttr()})
		}
		var conds []pattern.Condition
		for j, nc := 0, b.next(3); j < nc; j++ {
			attr, op := in(b.next(nIn)), ops[b.next(len(ops))]
			if op == pattern.OpIn {
				conds = append(conds, pattern.In(attr, val(), val()))
			} else {
				conds = append(conds, pattern.Condition{Attr: attr, Op: op, Const: val()})
			}
		}
		r.When = pattern.NewPattern(conds...)
		rules = append(rules, r)
	}
	eng, err := NewEngine(schema.MustNew("IN", inAttrs...), rule.MustSet(rules...), st)
	if err != nil {
		t.Fatal(err)
	}
	return witnessWorld{eng: eng, k: k}
}

// sharedRows reads the master the way CheckConsistency does.
func sharedRows(e *Engine) []*schema.Tuple {
	var rows []*schema.Tuple
	e.store.Table().ScanShared(func(s *schema.Tuple) bool {
		rows = append(rows, s)
		return true
	})
	return rows
}

// assertJoinMatchesReference holds analysis (2) to the nested loop:
// the same issues, in the same order, down to witnesses and detail.
func assertJoinMatchesReference(t *testing.T, label string, e *Engine) {
	t.Helper()
	rows := sharedRows(e)
	got, want := &ConsistencyReport{}, &ConsistencyReport{}
	e.checkPairwiseConflicts(got, rows)
	e.refPairwiseConflicts(want, rows)
	if !reflect.DeepEqual(got.Issues, want.Issues) {
		t.Fatalf("%s: join issues differ from the nested loop's\njoin: %v\nref:  %v", label, got.Issues, want.Issues)
	}
}

// fuzzWitnessOps are the pattern operators FuzzPairwiseWitness draws.
var fuzzWitnessOps = []pattern.Op{pattern.OpEq, pattern.OpNe, pattern.OpLt, pattern.OpGe, pattern.OpIn}

// FuzzPairwiseWitness holds the equi-join of analysis (2) to the
// nested loop over every master pair, on worlds of up to 60 rows and
// 2–5 rules built by buildWitnessWorld. The seed corpus is 2,000
// worlds drawn from fixed RNG seeds, so a plain test run covers them.
func FuzzPairwiseWitness(f *testing.F) {
	for seed := uint64(1); seed <= 2000; seed++ {
		f.Add([]byte(randomChoices(textutil.NewRNG(seed), 400)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b := choices(data)
		w := buildWitnessWorld(t, &b, 60, 5, fuzzWitnessOps)
		assertJoinMatchesReference(t, "fuzz world", w.eng)
	})
}

// The join agrees with the nested loop on generated customer masters
// under φ1–φ9 plus rules that add a same-tuple conflict behind a
// pattern on a bound attribute (φ10) and a cross product with a
// condition decided on the other side (φ11).
func TestPairwiseJoinMatchesReferenceCustomerGen(t *testing.T) {
	for _, n := range []int{50, 400} {
		entities := dataset.NewCustomerGen(1).GenerateEntities(n)
		st, err := dataset.MasterStore(entities)
		if err != nil {
			t.Fatal(err)
		}
		rs := dataset.DemoRules().Clone()
		zip := entities[n-1].Master[7]
		for _, line := range []string{
			fmt.Sprintf(`phi10: match zip~zip set city := str when zip = %q`, string(zip)),
			`phi11: match FN~FN, LN~LN set zip := zip when AC != "0800"`,
		} {
			if err := rs.Add(mustParse(t, line)); err != nil {
				t.Fatal(err)
			}
		}
		e, err := NewEngine(dataset.CustSchema(), rs, st)
		if err != nil {
			t.Fatal(err)
		}
		assertJoinMatchesReference(t, fmt.Sprintf("%d entities", n), e)
	}
}

// Analysis (2) has no master-pair budget: a same-tuple conflict on the
// last of 100,001 master rows is reported. The nested loop it replaced
// spent its 100,000-pair budget on the same-tuple pass before that row
// and called the set consistent.
func TestPairwiseConflictPastPairBudget(t *testing.T) {
	in := schema.MustNew("IN", schema.Str("a"), schema.Str("b"))
	st := master.New(schema.MustNew("MD", schema.Str("A"), schema.Str("B"), schema.Str("C")))
	const n = 100001
	var last int64
	for i := 0; i < n; i++ {
		c := value.V("same")
		if i == n-1 {
			c = "other"
		}
		id, err := st.InsertValues(value.V(strconv.Itoa(i)), "same", c)
		if err != nil {
			t.Fatal(err)
		}
		last = id
	}
	rs := rule.MustSet(
		mustParse(t, `r1: match a~A set b := B`),
		mustParse(t, `r2: match a~A set b := C`),
	)
	e, err := NewEngine(in, rs, st)
	if err != nil {
		t.Fatal(err)
	}
	rep := e.CheckConsistency()
	if rep.Consistent() {
		t.Fatalf("conflict on the last row missed: %v", rep.Issues)
	}
	for _, is := range rep.Errors() {
		if is.Kind == IssueRuleConflict && is.MasterA == last && is.MasterB == last {
			return
		}
	}
	t.Fatalf("no same-tuple conflict on row %d: %v", last, rep.Issues)
}

// A report with no issues at all means an order-independent chase:
// the compiled chase gives the same tuple and validated set under the
// canonical rule order, its reverse and three shuffles, for random
// inputs and random validated seeds. (A rule set with only warnings
// may still depend on the order, for inputs that mix two entities.)
func TestNoIssuesMeansOrderIndependentChase(t *testing.T) {
	ops := []pattern.Op{pattern.OpEq, pattern.OpNe, pattern.OpLt, pattern.OpLe, pattern.OpGe, pattern.OpIn}
	clean := 0
	for seed := uint64(1); seed <= 4000; seed++ {
		rng := textutil.NewRNG(seed)
		b := randomChoices(rng, 200)
		w := buildWitnessWorld(t, &b, 25, 6, ops)
		// Analyses (1) and (2) are cheap and usually find an issue;
		// only sets they pass need the probing of the full check.
		rows, pre := sharedRows(w.eng), &ConsistencyReport{}
		w.eng.checkMasterAmbiguity(pre, rows)
		w.eng.checkPairwiseConflicts(pre, rows)
		if len(pre.Issues) > 0 {
			continue
		}
		if rep := w.eng.CheckConsistency(); len(rep.Issues) > 0 {
			continue
		}
		clean++
		input := w.eng.InputSchema()
		orders := w.eng.probeOrders(w.eng.Rules().Rules(), 3, rng)
		chasers := make([]*Chaser, len(orders))
		for i, ord := range orders {
			chasers[i] = w.eng.reordered(ord).NewChaser()
		}
		for probe := 0; probe < 20; probe++ {
			vals := make(value.List, input.Len())
			for i := range vals {
				vals[i] = value.V(fmt.Sprintf("v%d", rng.Intn(w.k)))
			}
			tu := &schema.Tuple{Schema: input, Vals: vals}
			validated := randomSeedSet(rng, input)
			base := chasers[0].Chase(tu, validated)
			for oi := 1; oi < len(orders); oi++ {
				res := chasers[oi].Chase(tu, validated)
				if !res.Tuple.Equal(base.Tuple) || res.Validated != base.Validated {
					t.Fatalf("seed %d: no issues reported, but order %s gives %v (validated %v) and %s gives %v (validated %v)\nrules: %v",
						seed, orderName(orders[oi]), res.Tuple.Vals, res.Validated,
						orderName(orders[0]), base.Tuple.Vals, base.Validated, w.eng.Rules().Rules())
				}
			}
		}
	}
	if clean < 300 {
		t.Fatalf("only %d worlds without issues: the property was barely exercised", clean)
	}
	t.Logf("%d worlds without issues", clean)
}

// A snapshot's check reports what the live engine reported at the
// snapshot's instant, and master writes after it do not reach it: the
// view POST /api/v1/rules/check analyses outside the server lock.
func TestCheckConsistencyOnSnapshot(t *testing.T) {
	entities := dataset.NewCustomerGen(1).GenerateEntities(2000)
	st, err := dataset.MasterStore(entities)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(dataset.CustSchema(), dataset.DemoRules(), st)
	if err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	live := e.CheckConsistency()
	if got := snap.CheckConsistency(); !reflect.DeepEqual(got, live) {
		t.Fatalf("snapshot report %v != live %v", got.Issues, live.Issues)
	}
	// Same zip as the first entity, another area code: φ1 turns
	// ambiguous on the live engine only.
	dup := append(value.List(nil), entities[0].Master...)
	dup[2] = "999"
	if _, err := st.InsertValues(dup...); err != nil {
		t.Fatal(err)
	}
	if e.CheckConsistency().Consistent() {
		t.Fatal("live engine missed the inserted ambiguity")
	}
	if got := snap.CheckConsistency(); !reflect.DeepEqual(got, live) {
		t.Fatalf("snapshot report moved with a later insert: %v", got.Issues)
	}
}
