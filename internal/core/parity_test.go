package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"cerfix/internal/dataset"
	"cerfix/internal/master"
	"cerfix/internal/pattern"
	"cerfix/internal/rule"
	"cerfix/internal/schema"
	"cerfix/internal/textutil"
	"cerfix/internal/value"
)

// The compiled/legacy parity suite: the compiled agenda chase (Chase,
// Chaser.Chase, Chaser.ChaseScratch) must reproduce the legacy
// round-robin loop (ChaseLegacy) byte for byte — same fixed tuple,
// same validated set, same changes in the same order with the same
// Round stamps, same conflicts in the same order, same Rounds — for
// arbitrary schemas, rule sets, master contents, inputs and seeds,
// across every master access path.

// assertSameResult deep-compares two chase results.
func assertSameResult(t *testing.T, label string, got, want *ChaseResult) {
	t.Helper()
	if !got.Tuple.Equal(want.Tuple) {
		t.Fatalf("%s: tuple %v != legacy %v", label, got.Tuple, want.Tuple)
	}
	if got.Validated != want.Validated {
		t.Fatalf("%s: validated %v != legacy %v", label, got.Validated, want.Validated)
	}
	// ChaseScratch reuses buffers, so an empty slice may be non-nil
	// where the allocating paths leave nil: element equality is the
	// contract, not backing-array identity.
	if len(got.Changes) != len(want.Changes) ||
		(len(got.Changes) > 0 && !reflect.DeepEqual(got.Changes, want.Changes)) {
		t.Fatalf("%s: changes diverge\ncompiled: %+v\nlegacy:   %+v", label, got.Changes, want.Changes)
	}
	if len(got.Conflicts) != len(want.Conflicts) ||
		(len(got.Conflicts) > 0 && !reflect.DeepEqual(got.Conflicts, want.Conflicts)) {
		t.Fatalf("%s: conflicts diverge\ncompiled: %+v\nlegacy:   %+v", label, got.Conflicts, want.Conflicts)
	}
	if got.Rounds != want.Rounds {
		t.Fatalf("%s: rounds %d != legacy %d", label, got.Rounds, want.Rounds)
	}
}

// randomWorld builds a random (schemas, rules, master, inputs) setup.
// Small value alphabets force key collisions (MasterAmbiguous) and
// wrong seed-validated cells (ValidatedContradiction); random pattern
// conditions exercise the compiled matcher, including multi-round
// premise chains through pattern scopes.
type randomWorld struct {
	eng    *Engine
	inputs []*schema.Tuple
	rng    *textutil.RNG
}

func newRandomWorld(t *testing.T, seed uint64) *randomWorld {
	t.Helper()
	return buildRandomWorld(t, seed, false)
}

// newSharedXmWorld is newRandomWorld with every rule's master match
// list Xm drawn from a pool of one or two, so several rules share an
// Xm (and so a grouped rule index). Half the rules match the pool
// list on its own input positions, half on other ones: same Xm with
// the same X shares a probe, same Xm with a different X must not.
func newSharedXmWorld(t *testing.T, seed uint64) *randomWorld {
	t.Helper()
	return buildRandomWorld(t, seed, true)
}

func buildRandomWorld(t *testing.T, seed uint64, sharedXm bool) *randomWorld {
	t.Helper()
	rng := textutil.NewRNG(seed)
	width := 4 + rng.Intn(6) // 4..9 attributes
	inAttrs := make([]schema.Attribute, width)
	mAttrs := make([]schema.Attribute, width)
	for i := range inAttrs {
		inAttrs[i] = schema.Str(fmt.Sprintf("a%d", i))
		mAttrs[i] = schema.Str(fmt.Sprintf("m%d", i))
	}
	input := schema.MustNew("IN", inAttrs...)
	msch := schema.MustNew("MD", mAttrs...)

	alphabet := 2 + rng.Intn(3) // 2..4 distinct values per column
	randVal := func() value.V { return value.V(fmt.Sprintf("c%d", rng.Intn(alphabet))) }

	st := master.New(msch)
	rows := 3 + rng.Intn(25)
	for r := 0; r < rows; r++ {
		vals := make(value.List, width)
		for i := range vals {
			vals[i] = randVal()
		}
		if _, err := st.InsertValues(vals...); err != nil {
			t.Fatal(err)
		}
	}

	pickDistinct := func(n int) []int {
		perm := rng.Perm(width)
		return perm[:n]
	}
	nRules := 1 + rng.Intn(12)
	var pool [][]int // shared master match lists (sharedXm only)
	if sharedXm {
		for n := 1 + rng.Intn(2); len(pool) < n; {
			pool = append(pool, pickDistinct(1+rng.Intn(2)))
		}
	}
	var rules []*rule.Rule
	for ri := 0; ri < nRules; ri++ {
		nMatch := 1 + rng.Intn(2)
		nSet := 1 + rng.Intn(2)
		r := &rule.Rule{ID: fmt.Sprintf("r%d", ri)}
		if sharedXm {
			xm := pool[rng.Intn(len(pool))]
			x := xm
			if rng.Bool(0.5) {
				x = pickDistinct(len(xm))
			}
			for j, p := range xm {
				r.Match = append(r.Match, rule.Correspondence{Input: fmt.Sprintf("a%d", x[j]), Master: fmt.Sprintf("m%d", p)})
			}
			for _, p := range rng.Perm(width) {
				if len(r.Set) < nSet && !slices.Contains(x, p) {
					r.Set = append(r.Set, rule.Correspondence{Input: fmt.Sprintf("a%d", p), Master: fmt.Sprintf("m%d", p)})
				}
			}
		} else {
			pos := pickDistinct(min(nMatch+nSet, width))
			if len(pos) < 2 {
				continue // need at least one match and one set attribute
			}
			nMatch = min(nMatch, len(pos)-1)
			for _, p := range pos[:nMatch] {
				r.Match = append(r.Match, rule.Correspondence{Input: fmt.Sprintf("a%d", p), Master: fmt.Sprintf("m%d", p)})
			}
			for _, p := range pos[nMatch:] {
				r.Set = append(r.Set, rule.Correspondence{Input: fmt.Sprintf("a%d", p), Master: fmt.Sprintf("m%d", p)})
			}
		}
		if rng.Bool(0.4) {
			attr := fmt.Sprintf("a%d", rng.Intn(width))
			switch rng.Intn(4) {
			case 0:
				r.When = pattern.NewPattern(pattern.Eq(attr, randVal()))
			case 1:
				r.When = pattern.NewPattern(pattern.Ne(attr, randVal()))
			case 2:
				r.When = pattern.NewPattern(pattern.In(attr, randVal(), randVal()))
			default:
				r.When = pattern.NewPattern(pattern.Any(attr))
			}
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		rules = append(rules, &rule.Rule{
			ID:    "r0",
			Match: []rule.Correspondence{{Input: "a0", Master: "m0"}},
			Set:   []rule.Correspondence{{Input: "a1", Master: "m1"}},
		})
	}
	rs, err := rule.NewSet(rules...)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(input, rs, st)
	if err != nil {
		t.Fatal(err)
	}

	nInputs := 10 + rng.Intn(15)
	inputs := make([]*schema.Tuple, nInputs)
	for i := range inputs {
		vals := make(value.List, width)
		for j := range vals {
			vals[j] = randVal()
		}
		inputs[i] = &schema.Tuple{Schema: input, Vals: vals}
	}
	return &randomWorld{eng: eng, inputs: inputs, rng: rng}
}

// TestCompiledLegacyParityRandom is the randomized parity sweep: many
// random worlds, every lookup mode, random seeds, three compiled
// entry points against the legacy oracle.
func TestCompiledLegacyParityRandom(t *testing.T) {
	modes := []master.LookupMode{master.ModeRuleIndex, master.ModeScan}
	for trial := uint64(0); trial < 40; trial++ {
		w := newRandomWorld(t, 1000+trial)
		mode := modes[trial%uint64(len(modes))]
		w.eng.Master().SetMode(mode)
		chaser := w.eng.NewChaser()
		scratcher := w.eng.NewChaser()
		for i, in := range w.inputs {
			seed := schema.EmptySet
			for p := 0; p < w.eng.InputSchema().Len(); p++ {
				if w.rng.Bool(0.45) {
					seed = seed.With(p)
				}
			}
			label := fmt.Sprintf("trial %d mode %s tuple %d seed %v", trial, mode, i, seed)
			want := w.eng.ChaseLegacy(in, seed)
			assertSameResult(t, label+" [Engine.Chase]", w.eng.Chase(in, seed), want)
			assertSameResult(t, label+" [Chaser.Chase]", chaser.Chase(in, seed), want)
			assertSameResult(t, label+" [ChaseScratch]", scratcher.ChaseScratch(in, seed), want)
		}
	}
}

// TestCompiledLegacyParitySnapshots pins parity on frozen engine
// views — the handle fast path resolves the rule index directly there,
// which is the access path of the batch pipeline and job runners —
// under every lookup mode.
func TestCompiledLegacyParitySnapshots(t *testing.T) {
	modes := []master.LookupMode{master.ModeRuleIndex, master.ModeScan}
	for trial := uint64(0); trial < 10; trial++ {
		w := newRandomWorld(t, 9000+trial)
		snap := w.eng.Snapshot()
		chaser := snap.NewChaser()
		for _, mode := range modes {
			snap.Master().SetMode(mode)
			for i, in := range w.inputs {
				seed := schema.EmptySet
				for p := 0; p < w.eng.InputSchema().Len(); p++ {
					if w.rng.Bool(0.45) {
						seed = seed.With(p)
					}
				}
				label := fmt.Sprintf("trial %d mode %s tuple %d", trial, mode, i)
				want := snap.ChaseLegacy(in, seed)
				assertSameResult(t, label+" [snapshot]", chaser.ChaseScratch(in, seed), want)
			}
		}
	}
}

// TestCompiledLegacyParityDemo pins parity on the paper's demo
// configuration and the generated CUST workload — the fixtures every
// other suite leans on.
func TestCompiledLegacyParityDemo(t *testing.T) {
	e := demoEngine(t)
	fullSeeds := []schema.AttrSet{
		schema.EmptySet,
		validatedSet(t, e, "zip"),
		validatedSet(t, e, "AC", "phn", "type", "item"),
		validatedSet(t, e, "AC", "phn", "type", "item", "zip"),
		schema.FullSet(e.InputSchema()),
	}
	for _, in := range []*schema.Tuple{dataset.DemoInputExample1(), dataset.DemoInputFig3()} {
		for _, seed := range fullSeeds {
			assertSameResult(t, fmt.Sprintf("demo seed %v", seed),
				e.Chase(in, seed), e.ChaseLegacy(in, seed))
		}
	}

	g := dataset.NewCustomerGen(17)
	w, err := g.GenerateWorkload(40, 80, 0.4, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(dataset.CustSchema(), dataset.DemoRules(), w.Store)
	if err != nil {
		t.Fatal(err)
	}
	rng := textutil.NewRNG(23)
	chaser := eng.NewChaser()
	for i, in := range w.Dirty {
		seed := randomSeedSet(rng, eng.InputSchema())
		assertSameResult(t, fmt.Sprintf("workload tuple %d", i),
			chaser.Chase(in, seed), eng.ChaseLegacy(in, seed))
	}
}

// TestChaseScratchReuse pins the ChaseScratch contract: the result is
// overwritten by the next call (so callers must consume it first) and
// the input tuple is never mutated.
func TestChaseScratchReuse(t *testing.T) {
	e := demoEngine(t)
	ch := e.NewChaser()
	in := dataset.DemoInputFig3()
	orig := in.Clone()
	seed := validatedSet(t, e, "AC", "phn", "type", "item", "zip")
	r1 := ch.ChaseScratch(in, seed)
	if !r1.AllValidated() {
		t.Fatal("demo chase incomplete")
	}
	fixed := r1.Tuple.Clone()
	r2 := ch.ChaseScratch(dataset.DemoInputExample1(), validatedSet(t, e, "zip"))
	if r1 != r2 {
		t.Fatal("ChaseScratch should return the same reusable result")
	}
	if r1.Tuple.Equal(fixed) {
		t.Fatal("second ChaseScratch left the first result intact — reuse contract untested")
	}
	if !in.Equal(orig) {
		t.Fatal("ChaseScratch mutated its input tuple")
	}
}

// TestCompiledAgendaSkipsUnreadyRules is the scheduling regression:
// with a large rule set whose premises are unreachable from the seed,
// the agenda must still terminate in one round with nothing fired
// (the legacy loop scans them all; both agree on the result).
func TestCompiledAgendaSkipsUnreadyRules(t *testing.T) {
	const width = 12
	attrs := make([]schema.Attribute, width)
	for i := range attrs {
		attrs[i] = schema.Str(fmt.Sprintf("a%d", i))
	}
	sch := schema.MustNew("W", attrs...)
	rs, err := rule.NewSet()
	if err != nil {
		t.Fatal(err)
	}
	// 80 rules, all keyed off a11 — never validated below.
	for i := 0; i < 80; i++ {
		r := &rule.Rule{
			ID:    fmt.Sprintf("r%03d", i),
			Match: []rule.Correspondence{{Input: "a11", Master: "a11"}},
			Set:   []rule.Correspondence{{Input: fmt.Sprintf("a%d", i%10), Master: fmt.Sprintf("a%d", i%10)}},
		}
		if err := rs.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	st := master.New(sch)
	vals := make(value.List, width)
	for i := range vals {
		vals[i] = value.V(fmt.Sprintf("v%d", i))
	}
	if _, err := st.InsertValues(vals...); err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(sch, rs, st)
	if err != nil {
		t.Fatal(err)
	}
	in := &schema.Tuple{Schema: sch, Vals: make(value.List, width)}
	res := eng.Chase(in, schema.SetOf(0, 1))
	if res.Rounds != 1 || len(res.Changes) != 0 {
		t.Fatalf("rounds=%d changes=%d, want an immediate fixpoint", res.Rounds, len(res.Changes))
	}
	assertSameResult(t, "unready rules", res, eng.ChaseLegacy(in, schema.SetOf(0, 1)))
}

// craftedEngine builds a three-attribute world (IN: a0 a1 a2, MD: m0
// m1 m2) over the given master rows and rules.
func craftedEngine(t *testing.T, rows [][]string, rules ...*rule.Rule) (*Engine, *schema.Schema) {
	t.Helper()
	input := schema.MustNew("IN", schema.Str("a0"), schema.Str("a1"), schema.Str("a2"))
	msch := schema.MustNew("MD", schema.Str("m0"), schema.Str("m1"), schema.Str("m2"))
	st := master.New(msch)
	for _, row := range rows {
		if _, err := st.InsertValues(value.V(row[0]), value.V(row[1]), value.V(row[2])); err != nil {
			t.Fatal(err)
		}
	}
	rs, err := rule.NewSet(rules...)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(input, rs, st)
	if err != nil {
		t.Fatal(err)
	}
	return eng, input
}

// The per-tuple premise prefilter suite. The compiled chase has no
// per-tuple premise prefilter: a premise-ready rule whose pattern can
// be satisfied is always evaluated, and a failing condition or a
// match key no master row carries rejects it inside the agenda. The worlds below
// are the cases such a prefilter would reject before evaluation; each
// pins the result against the legacy oracle and a known fixed value,
// and pins the counters: only compile-time static skips are counted.

// premiseReadyCounts returns, for a finished chase, how many rules had
// their premise satisfied (premise ⊆ the final validated set, which
// only grows) and how many of those the compile flagged as statically
// unsatisfiable.
func premiseReadyCounts(e *Engine, res *ChaseResult) (ready, static int) {
	p := e.prog
	for i := range p.rules {
		if !res.Validated.ContainsAll(p.rules[i].premise) {
			continue
		}
		ready++
		if p.staticSkip[i>>6]&(1<<uint(i&63)) != 0 {
			static++
		}
	}
	return ready, static
}

// TestPrefilterOnOffParityRandom sweeps random worlds under every
// lookup mode comparing a fresh chaser and a pooled one against the
// legacy oracle. Results must be byte-identical and the counters must
// reconcile: every premise-ready rule is either evaluated or skipped,
// and the skipped ones are exactly the statically unsatisfiable ones.
func TestPrefilterOnOffParityRandom(t *testing.T) {
	modes := []master.LookupMode{master.ModeRuleIndex, master.ModeScan}
	for trial := uint64(0); trial < 40; trial++ {
		w := newRandomWorld(t, 5000+trial)
		w.eng.Master().SetMode(modes[trial%uint64(len(modes))])
		fresh := w.eng.NewChaser()
		pooled := w.eng.AcquireChaser()
		for i, in := range w.inputs {
			seed := schema.EmptySet
			for p := 0; p < w.eng.InputSchema().Len(); p++ {
				if w.rng.Bool(0.45) {
					seed = seed.With(p)
				}
			}
			label := fmt.Sprintf("trial %d tuple %d seed %v", trial, i, seed)
			want := w.eng.ChaseLegacy(in, seed)
			got := fresh.Chase(in, seed)
			again := pooled.Chase(in, seed)
			assertSameResult(t, label+" [fresh chaser]", got, want)
			assertSameResult(t, label+" [pooled chaser]", again, want)
			if got.Stats != again.Stats {
				t.Fatalf("%s: fresh stats %+v != pooled stats %+v", label, got.Stats, again.Stats)
			}
			ready, static := premiseReadyCounts(w.eng, got)
			if got.Stats.RulesSkipped != static {
				t.Fatalf("%s: %d skips, want the %d static skips only", label, got.Stats.RulesSkipped, static)
			}
			if got.Stats.RulesEvaluated+got.Stats.RulesSkipped != ready {
				t.Fatalf("%s: counters don't reconcile: evaluated %d + skipped %d != %d premise-ready",
					label, got.Stats.RulesEvaluated, got.Stats.RulesSkipped, ready)
			}
		}
		pooled.Release()
	}
}

// TestPrefilterSkips pins the two per-tuple reject paths — a failing
// pattern condition on a validated attribute, and a match-key value no
// master row carries — as agenda evaluations that fire nothing, not as
// skips.
func TestPrefilterSkips(t *testing.T) {
	// r0 fixes a1 from a0 gated on a0 = "go"; r1 fixes a2 from a0
	// unconditionally. Master knows the a0 values "go" and "stop" only.
	eng, input := craftedEngine(t, [][]string{{"go", "x", "y"}, {"stop", "x2", "y2"}},
		&rule.Rule{
			ID:    "r0",
			Match: []rule.Correspondence{{Input: "a0", Master: "m0"}},
			Set:   []rule.Correspondence{{Input: "a1", Master: "m1"}},
			When:  pattern.NewPattern(pattern.Eq("a0", value.V("go"))),
		},
		&rule.Rule{
			ID:    "r1",
			Match: []rule.Correspondence{{Input: "a0", Master: "m0"}},
			Set:   []rule.Correspondence{{Input: "a2", Master: "m2"}},
		},
	)
	ch := eng.NewChaser()
	seed := schema.SetOf(0) // a0 validated

	// a0 = "stop": r0's condition fails, r1 matches and fixes a2.
	in := &schema.Tuple{Schema: input, Vals: value.List{value.V("stop"), value.V(""), value.V("")}}
	res := ch.Chase(in, seed)
	assertSameResult(t, "cond reject", res, eng.ChaseLegacy(in, seed))
	if res.Stats.RulesSkipped != 0 || res.Stats.RulesEvaluated != 2 {
		t.Fatalf("cond reject: stats %+v, want 0 skipped / 2 evaluated", res.Stats)
	}
	if got := string(res.Tuple.Vals[2]); got != "y2" {
		t.Fatalf("cond reject: a2 = %q, want fixed to %q", got, "y2")
	}

	// a0 = "unknown": no master row carries it, so neither rule's
	// probe can match and nothing is fixed.
	in = &schema.Tuple{Schema: input, Vals: value.List{value.V("unknown"), value.V(""), value.V("")}}
	res = ch.Chase(in, seed)
	assertSameResult(t, "dict miss", res, eng.ChaseLegacy(in, seed))
	if res.Stats.RulesSkipped != 0 || res.Stats.RulesEvaluated != 2 {
		t.Fatalf("dict miss: stats %+v, want 0 skipped / 2 evaluated", res.Stats)
	}
	if len(res.Changes) != 0 {
		t.Fatalf("dict miss: changes %+v, want none", res.Changes)
	}
}

// TestPrefilterUnstableAttrNotFiltered pins a gate on an attribute some
// rule can still write: r1's gate on a1 fails at seed time but passes
// after r0 rewrites a1, so the chain must still complete.
func TestPrefilterUnstableAttrNotFiltered(t *testing.T) {
	// r0 rewrites a1; r1's gate and match key are on a1. The seed value
	// "WRONG" fails the gate and no master row carries it, but the
	// value r1 actually sees is r0's "x".
	eng, input := craftedEngine(t, [][]string{{"go", "x", "y"}},
		&rule.Rule{
			ID:    "r0",
			Match: []rule.Correspondence{{Input: "a0", Master: "m0"}},
			Set:   []rule.Correspondence{{Input: "a1", Master: "m1"}},
		},
		&rule.Rule{
			ID:    "r1",
			Match: []rule.Correspondence{{Input: "a1", Master: "m1"}},
			Set:   []rule.Correspondence{{Input: "a2", Master: "m2"}},
			When:  pattern.NewPattern(pattern.Eq("a1", value.V("x"))),
		},
	)
	in := &schema.Tuple{Schema: input, Vals: value.List{value.V("go"), value.V("WRONG"), value.V("")}}
	seed := schema.SetOf(0)
	res := eng.Chase(in, seed)
	assertSameResult(t, "unstable chain", res, eng.ChaseLegacy(in, seed))
	if got := string(res.Tuple.Vals[2]); got != "y" {
		t.Fatalf("unstable chain: a2 = %q, want %q via the a1 chain", got, "y")
	}
	if res.Stats.RulesSkipped != 0 {
		t.Fatalf("stats %+v: skipped a rule on an unstable attribute", res.Stats)
	}
}

// TestCompiledLegacyParityStaticSkip pins the compile-time skip: a rule
// whose pattern no tuple can satisfy never reaches the agenda, is
// counted skipped, and the result still equals the legacy oracle's.
func TestCompiledLegacyParityStaticSkip(t *testing.T) {
	eng, input := craftedEngine(t, [][]string{{"x", "x1", "x2"}},
		&rule.Rule{
			ID:    "r0",
			Match: []rule.Correspondence{{Input: "a0", Master: "m0"}},
			Set:   []rule.Correspondence{{Input: "a1", Master: "m1"}},
			When:  pattern.NewPattern(pattern.Eq("a0", value.V("x")), pattern.Eq("a0", value.V("y"))),
		},
		&rule.Rule{
			ID:    "r1",
			Match: []rule.Correspondence{{Input: "a0", Master: "m0"}},
			Set:   []rule.Correspondence{{Input: "a2", Master: "m2"}},
		},
	)
	in := &schema.Tuple{Schema: input, Vals: value.List{value.V("x"), value.V(""), value.V("")}}
	seed := schema.SetOf(0)
	res := eng.Chase(in, seed)
	assertSameResult(t, "static skip", res, eng.ChaseLegacy(in, seed))
	if res.Stats.RulesSkipped != 1 {
		t.Fatalf("stats %+v, want exactly the unsatisfiable rule skipped", res.Stats)
	}
	if got := string(res.Tuple.Vals[2]); got != "x2" {
		t.Fatalf("a2 = %q, want the satisfiable rule to fix it to %q", got, "x2")
	}
}

// scanView returns a frozen view of e's current data that answers
// every master lookup by scanning the relation: it never reads a rule
// index.
func scanView(e *Engine) *Engine {
	s := e.Snapshot()
	s.Master().SetMode(master.ModeScan)
	return s
}

// assertMatchesScan chases every input from every seed on eng, on the
// rule-index access path, through a pooled chaser and Engine.Chase,
// and holds both to ChaseLegacy on scan, a scan view of the same data.
func assertMatchesScan(t *testing.T, label string, eng, scan *Engine, inputs []*schema.Tuple, seeds []schema.AttrSet) {
	t.Helper()
	if eng.Master().Mode() != master.ModeRuleIndex {
		t.Fatalf("%s: engine on %v, want the rule index", label, eng.Master().Mode())
	}
	ch := eng.AcquireChaser()
	defer ch.Release()
	for i, in := range inputs {
		for _, seed := range seeds {
			l := fmt.Sprintf("%s tuple %d seed %v", label, i, seed)
			want := scan.ChaseLegacy(in, seed)
			assertSameResult(t, l+" [chaser]", ch.Chase(in, seed), want)
			assertSameResult(t, l+" [Engine.Chase]", eng.Chase(in, seed), want)
		}
	}
}

// assertViewsMatchScan runs assertMatchesScan on the live engine and a
// snapshot, inserts row into the live master, then runs it again on
// the live engine, a fresh snapshot and the old snapshot.
func assertViewsMatchScan(t *testing.T, label string, eng *Engine, row value.List, inputs []*schema.Tuple, seeds []schema.AttrSet) {
	t.Helper()
	snap, snapScan := eng.Snapshot(), scanView(eng)
	assertMatchesScan(t, label+" live", eng, scanView(eng), inputs, seeds)
	assertMatchesScan(t, label+" snapshot", snap, snapScan, inputs, seeds)
	if _, err := eng.Master().InsertValues(row...); err != nil {
		t.Fatal(err)
	}
	assertMatchesScan(t, label+" live after insert", eng, scanView(eng), inputs, seeds)
	assertMatchesScan(t, label+" snapshot after insert", eng.Snapshot(), scanView(eng), inputs, seeds)
	assertMatchesScan(t, label+" old snapshot after insert", snap, snapScan, inputs, seeds)
}

// hasConflict reports whether res records a conflict of kind from rule id.
func hasConflict(res *ChaseResult, kind ConflictKind, id string) bool {
	for _, c := range res.Conflicts {
		if c.Kind == kind && c.RuleID == id {
			return true
		}
	}
	return false
}

// TestGroupedIndexMatchesScan holds the grouped rule index — one index
// per master match list Xm, shared by every rule with that Xm — and
// the compiled chase's per-chase probe memos to the scan path: the
// compiled chase on ModeRuleIndex must equal ChaseLegacy on a ModeScan
// view of the same data, which never reads a rule index. The other
// parity tests compare the two executors on one access path, where a
// wrong grouped index would make both agree on a wrong answer.
func TestGroupedIndexMatchesScan(t *testing.T) {
	cust := dataset.CustSchema()
	demoInputs := func(extra ...*schema.Tuple) []*schema.Tuple {
		return append([]*schema.Tuple{dataset.DemoInputExample1(), dataset.DemoInputFig3()}, extra...)
	}
	demoSeeds := []schema.AttrSet{
		schema.EmptySet,
		schema.SetOfNames(cust, "zip"),
		schema.SetOfNames(cust, "zip", "phn", "type", "item"),
		schema.SetOfNames(cust, "AC", "phn", "type", "item"),
		schema.SetOfNames(cust, "zip", "phn", "type", "item", "str", "city"),
		schema.FullSet(cust),
	}

	// φ1–φ3 share the zip index. Two EH8 4AH tuples agree on AC and
	// str but not on city, so φ1 and φ2 are Unique and φ3 is a
	// Conflict read off the same entry. The insert then splits AC.
	t.Run("one zip, AC agrees, city conflicts", func(t *testing.T) {
		e := demoEngine(t)
		if _, err := e.Master().InsertValues("Rob", "Brady", "131", "6884563", "079172485",
			"501 Elm St", "Edinburgh", "EH8 4AH", "11/11/55", "M"); err != nil {
			t.Fatal(err)
		}
		res := e.Chase(dataset.DemoInputExample1(), schema.SetOfNames(cust, "zip"))
		if res.Tuple.Get("AC") != "131" || !hasConflict(res, MasterAmbiguous, "phi3") {
			t.Fatalf("world lost its shape: AC %q, conflicts %+v", res.Tuple.Get("AC"), res.Conflicts)
		}
		assertViewsMatchScan(t, "zip", e, value.List{"Bob", "Brady", "999", "6884563", "079172485",
			"501 Elm St", "Edi", "EH8 4AH", "11/11/55", "M"}, demoInputs(), demoSeeds)
	})

	// rA and rB match the same Xm (m0) on different input attributes:
	// they share an index but not a probe key, so they must not share
	// a memo entry.
	t.Run("same Xm, different X", func(t *testing.T) {
		in := schema.MustNew("IN", schema.Str("a0"), schema.Str("a1"), schema.Str("a2"), schema.Str("a3"))
		msch := schema.MustNew("MD", schema.Str("m0"), schema.Str("m1"), schema.Str("m2"), schema.Str("m3"))
		st := master.New(msch)
		for _, row := range []value.List{{"x", "p", "q", "u"}, {"y", "r", "s", "v"}} {
			if _, err := st.InsertValues(row...); err != nil {
				t.Fatal(err)
			}
		}
		rs := rule.MustSet(
			&rule.Rule{ID: "rA", Match: []rule.Correspondence{{Input: "a0", Master: "m0"}},
				Set: []rule.Correspondence{{Input: "a2", Master: "m2"}}},
			&rule.Rule{ID: "rB", Match: []rule.Correspondence{{Input: "a1", Master: "m0"}},
				Set: []rule.Correspondence{{Input: "a3", Master: "m1"}}},
		)
		e, err := NewEngine(in, rs, st)
		if err != nil {
			t.Fatal(err)
		}
		if regs := st.RegisteredRuleIndexes(); len(regs) != 1 {
			t.Fatalf("indexes %v, want one shared by rA and rB", regs)
		}
		tuple := func(vals ...value.V) *schema.Tuple { return &schema.Tuple{Schema: in, Vals: vals} }
		inputs := []*schema.Tuple{tuple("x", "y", "", ""), tuple("y", "x", "", ""), tuple("x", "x", "", ""), tuple("x", "zz", "", "")}
		res := e.Chase(inputs[0], schema.SetOf(0, 1))
		if res.Tuple.Get("a2") != "q" || res.Tuple.Get("a3") != "r" {
			t.Fatalf("a2 %q a3 %q, want q and r", res.Tuple.Get("a2"), res.Tuple.Get("a3"))
		}
		seeds := []schema.AttrSet{schema.SetOf(0), schema.SetOf(1), schema.SetOf(0, 1), schema.SetOf(0, 1, 3)}
		assertViewsMatchScan(t, "same Xm", e, value.List{"y", "r2", "s", "w"}, inputs, seeds)
	})

	// φ1 fixes AC from zip; φ6–φ9 then probe with the fixed AC in the
	// same chase. The validated wrong str and city make φ6–φ9 report
	// contradictions, which a probe with the stale AC would miss.
	t.Run("AC fixed, then a key", func(t *testing.T) {
		e := demoEngine(t)
		home := schema.MustTuple(cust, "Bob", "Brady", "020", "6884563", "1", "Wrong St", "Wrong", "EH8 4AH", "CD")
		seed := schema.SetOfNames(cust, "zip", "phn", "type", "item", "str", "city")
		res := e.Chase(home, seed)
		if res.Tuple.Get("AC") != "131" || !hasConflict(res, ValidatedContradiction, "phi6") ||
			!hasConflict(res, ValidatedContradiction, "phi9") {
			t.Fatalf("world lost its shape: AC %q, conflicts %+v", res.Tuple.Get("AC"), res.Conflicts)
		}
		assertViewsMatchScan(t, "AC chain", e, value.List{"Rob", "Brady", "131", "6884563", "079172485",
			"9 Elm St", "Edi", "EH8 4AH", "11/11/55", "M"}, demoInputs(home), demoSeeds)
	})

	// System.AddRule builds a new engine over the same store. φ10 adds
	// LN to the zip index's U after a snapshot: the old snapshot keeps
	// its index and answers, the new engine serves the new pair.
	t.Run("AddRule grows U after a snapshot", func(t *testing.T) {
		e := demoEngine(t)
		old, oldScan := e.Snapshot(), scanView(e)
		rs := e.Rules().Clone()
		if err := rs.Add(mustParse(t, `phi10: match zip~zip set LN := LN`)); err != nil {
			t.Fatal(err)
		}
		e2, err := NewEngine(cust, rs, e.Master())
		if err != nil {
			t.Fatal(err)
		}
		// φ1–φ9 match on 4 master lists: zip, Mphn, (AC, Hphn) and AC.
		oldRegs, newRegs := old.Master().RegisteredRuleIndexes(), e2.Master().RegisteredRuleIndexes()
		if len(oldRegs) != 4 || len(newRegs) != 4 ||
			!slices.Contains(oldRegs, "zip->AC,str,city") || !slices.Contains(newRegs, "zip->AC,str,city,LN") {
			t.Fatalf("registered: old snapshot %v, live %v", oldRegs, newRegs)
		}
		misnamed := schema.MustTuple(cust, "Bob", "Bardy", "020", "079172485", "2", "501 Elm St", "Edi", "EH8 4AH", "CD")
		if got := e2.Chase(misnamed, schema.SetOfNames(cust, "zip")); got.Tuple.Get("LN") != "Brady" {
			t.Fatalf("new pair not served: LN %q", got.Tuple.Get("LN"))
		}
		assertMatchesScan(t, "old snapshot", old, oldScan, demoInputs(misnamed), demoSeeds)
		assertMatchesScan(t, "old engine", e, scanView(e), demoInputs(misnamed), demoSeeds)
		assertViewsMatchScan(t, "new engine", e2, value.List{"Bob", "Bradley", "131", "6884563", "079172485",
			"501 Elm St", "Edi", "EH8 4AH", "11/11/55", "M"}, demoInputs(misnamed), demoSeeds)
		assertMatchesScan(t, "old snapshot after insert", old, oldScan, demoInputs(misnamed), demoSeeds)
	})

	// Random worlds whose rules share master match lists.
	t.Run("random shared-Xm worlds", func(t *testing.T) {
		var sameX, otherX int
		for trial := uint64(0); trial < 30; trial++ {
			w := newSharedXmWorld(t, 7000+trial)
			rules := w.eng.prog.rules
			for i := range rules {
				for j := i + 1; j < len(rules); j++ {
					if slices.Equal(rules[i].matchMasterAttrs, rules[j].matchMasterAttrs) {
						if slices.Equal(rules[i].matchInputPos, rules[j].matchInputPos) {
							sameX++
						} else {
							otherX++
						}
					}
				}
			}
			width := w.eng.InputSchema().Len()
			seeds := make([]schema.AttrSet, 3)
			for i := range seeds {
				seeds[i] = randomSeedSet(w.rng, w.eng.InputSchema())
			}
			row := make(value.List, width)
			for i := range row {
				row[i] = value.V(fmt.Sprintf("c%d", w.rng.Intn(2)))
			}
			assertViewsMatchScan(t, fmt.Sprintf("trial %d", trial), w.eng, row, w.inputs, seeds)
		}
		if sameX == 0 || otherX == 0 {
			t.Fatalf("sweep drew %d same-X and %d other-X rule pairs on a shared Xm; want both", sameX, otherX)
		}
	})
}
