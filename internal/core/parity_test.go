package core

import (
	"fmt"
	"reflect"
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
	var rules []*rule.Rule
	for ri := 0; ri < nRules; ri++ {
		nMatch := 1 + rng.Intn(2)
		nSet := 1 + rng.Intn(2)
		pos := pickDistinct(min(nMatch+nSet, width))
		if len(pos) < 2 {
			continue // need at least one match and one set attribute
		}
		nMatch = min(nMatch, len(pos)-1)
		r := &rule.Rule{ID: fmt.Sprintf("r%d", ri)}
		for _, p := range pos[:nMatch] {
			r.Match = append(r.Match, rule.Correspondence{Input: fmt.Sprintf("a%d", p), Master: fmt.Sprintf("m%d", p)})
		}
		for _, p := range pos[nMatch:] {
			r.Set = append(r.Set, rule.Correspondence{Input: fmt.Sprintf("a%d", p), Master: fmt.Sprintf("m%d", p)})
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
	modes := []master.LookupMode{master.ModeRuleIndex, master.ModePlainIndex, master.ModeScan}
	for trial := uint64(0); trial < 40; trial++ {
		w := newRandomWorld(t, 1000+trial)
		mode := modes[trial%3]
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
// which is the access path of the batch pipeline and job runners. A
// second view over the same master packed into columnar blocks must
// chase identically to the boxed one under every lookup mode (the
// plain-index and scan paths read the packed rows). Random worlds are
// far below the default pack threshold, so it is dropped to one row.
func TestCompiledLegacyParitySnapshots(t *testing.T) {
	modes := []master.LookupMode{master.ModeRuleIndex, master.ModePlainIndex, master.ModeScan}
	for trial := uint64(0); trial < 10; trial++ {
		w := newRandomWorld(t, 9000+trial)
		snap := w.eng.Snapshot()
		w.eng.Master().Table().SetPackMinRows(1)
		if w.eng.Master().PackColumnar(0) == 0 {
			t.Fatalf("trial %d: no master shard packed", trial)
		}
		packed := w.eng.Snapshot()
		chaser := snap.NewChaser()
		packedChaser := packed.NewChaser()
		for _, mode := range modes {
			snap.Master().SetMode(mode)
			packed.Master().SetMode(mode)
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
				assertSameResult(t, label+" [packed snapshot]", packedChaser.ChaseScratch(in, seed), want)
				assertSameResult(t, label+" [packed legacy]", packed.ChaseLegacy(in, seed), want)
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
