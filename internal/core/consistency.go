package core

import (
	"fmt"
	"sort"
	"strings"

	"cerfix/internal/pattern"
	"cerfix/internal/rule"
	"cerfix/internal/schema"
	"cerfix/internal/textutil"
	"cerfix/internal/value"
)

// This file implements the rule engine's static analysis: "it checks
// the consistency of editing rules, i.e., whether the given rules are
// dirty themselves" (paper §2). The exact problem is coNP-complete
// (companion paper [7]), so CerFix layers three practical analyses:
//
//  1. per-rule master ambiguity — a single rule whose master relation
//     maps one key to two different source values can never produce a
//     unique fix for inputs carrying that key;
//  2. pairwise conflict witnesses — two rules with jointly satisfiable
//     patterns writing the same attribute, for which concrete master
//     tuples exist that would derive different values for one input
//     tuple;
//  3. order-independence (Church–Rosser) probing — chase concrete probe
//     tuples, synthesized from master rows, under several rule orders
//     and flag any outcome that depends on the order.
//
// (1) and (2) are sound, with a concrete witness per issue, and exact:
// (1) regroups every master row per rule, and (2) covers every master
// pair, with no budget, as an equi-join of the master with itself.
// (3) is a randomized check that catches multi-step interactions the
// pairwise analysis cannot see. The check as a whole is incomplete —
// a complete one would contradict the coNP-hardness — and the report
// says which analysis produced each issue so users can judge severity.

// IssueKind classifies consistency issues.
type IssueKind int

const (
	// IssueMasterAmbiguity is analysis (1).
	IssueMasterAmbiguity IssueKind = iota
	// IssueRuleConflict is analysis (2).
	IssueRuleConflict
	// IssueOrderDependence is analysis (3).
	IssueOrderDependence
)

// String names the issue kind.
func (k IssueKind) String() string {
	switch k {
	case IssueMasterAmbiguity:
		return "master-ambiguity"
	case IssueRuleConflict:
		return "rule-conflict"
	case IssueOrderDependence:
		return "order-dependence"
	default:
		return fmt.Sprintf("issue(%d)", int(k))
	}
}

// Severity grades an issue.
type Severity int

const (
	// SeverityError marks issues that break the unique-certain-fix
	// guarantee for entity-consistent inputs: the rule set is dirty.
	SeverityError Severity = iota
	// SeverityWarning marks cross-entity conflict witnesses: two rules
	// would disagree only for an input whose validated attributes mix
	// two different master entities. Such inputs carry contradictory
	// assertions, which the chase surfaces at run time as
	// ValidatedContradiction; the rules themselves are clean.
	SeverityWarning
)

// String names the severity.
func (s Severity) String() string {
	if s == SeverityWarning {
		return "warning"
	}
	return "error"
}

// Issue is one detected inconsistency.
type Issue struct {
	Kind     IssueKind
	Severity Severity
	// RuleA is always set; RuleB only for pairwise conflicts.
	RuleA, RuleB string
	// Attr is the attribute the conflict is about, when applicable.
	Attr string
	// MasterA/MasterB are witness master tuple IDs, when applicable.
	MasterA, MasterB int64
	// Detail is a human-readable elaboration.
	Detail string
}

// String renders the issue.
func (i Issue) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s/%s] rule %s", i.Kind, i.Severity, i.RuleA)
	if i.RuleB != "" {
		fmt.Fprintf(&b, " vs %s", i.RuleB)
	}
	if i.Attr != "" {
		fmt.Fprintf(&b, " on %s", i.Attr)
	}
	if i.Detail != "" {
		fmt.Fprintf(&b, ": %s", i.Detail)
	}
	return b.String()
}

// ConsistencyReport aggregates the analyses' findings.
type ConsistencyReport struct {
	Issues []Issue
	// ProbesRun counts Church–Rosser probe chases executed.
	ProbesRun int
}

// Consistent reports whether no error-severity issue was found.
// Warnings (cross-entity conflict witnesses) do not make a rule set
// inconsistent; they document which attribute combinations would expose
// contradictory user assertions.
func (r *ConsistencyReport) Consistent() bool {
	for _, is := range r.Issues {
		if is.Severity == SeverityError {
			return false
		}
	}
	return true
}

// Errors returns the error-severity issues.
func (r *ConsistencyReport) Errors() []Issue {
	var out []Issue
	for _, is := range r.Issues {
		if is.Severity == SeverityError {
			out = append(out, is)
		}
	}
	return out
}

// Warnings returns the warning-severity issues.
func (r *ConsistencyReport) Warnings() []Issue {
	var out []Issue
	for _, is := range r.Issues {
		if is.Severity == SeverityWarning {
			out = append(out, is)
		}
	}
	return out
}

// Analysis (3) synthesizes probes from the first probeRows master rows
// and chases them under the canonical rule order, its reverse and
// probeShuffles shuffles drawn from probeSeed.
const probeRows, probeShuffles, probeSeed = 50, 2, 1

// CheckConsistency runs all three analyses over one read of the
// master and returns the combined report.
func (e *Engine) CheckConsistency() *ConsistencyReport {
	// Stored rows are immutable, so the analyses share them uncopied.
	rows := make([]*schema.Tuple, 0, e.store.Len())
	e.store.Table().ScanShared(func(s *schema.Tuple) bool {
		rows = append(rows, s)
		return true
	})
	rep := &ConsistencyReport{}
	e.checkMasterAmbiguity(rep, rows)
	e.checkPairwiseConflicts(rep, rows)
	e.checkOrderIndependence(rep, rows)
	return rep
}

// checkMasterAmbiguity groups master tuples by each rule's Xm and flags
// keys whose groups disagree on Bm.
func (e *Engine) checkMasterAmbiguity(rep *ConsistencyReport, rows []*schema.Tuple) {
	for _, r := range e.rules.Rules() {
		xm := r.MatchMasterAttrs()
		bm := r.SetMasterAttrs()
		type seenRHS struct {
			rhs value.List
			id  int64
		}
		groups := make(map[string]seenRHS)
		flagged := make(map[string]bool)
		for _, s := range rows {
			key := s.Project(xm).Key()
			rhs := s.Project(bm)
			prev, ok := groups[key]
			if !ok {
				groups[key] = seenRHS{rhs: rhs, id: s.ID}
				continue
			}
			if !prev.rhs.Equal(rhs) && !flagged[key] {
				flagged[key] = true
				rep.Issues = append(rep.Issues, Issue{
					Kind:    IssueMasterAmbiguity,
					RuleA:   r.ID,
					MasterA: prev.id,
					MasterB: s.ID,
					Detail: fmt.Sprintf("key %v maps to both %v and %v",
						s.Project(xm).Strings(), prev.rhs.Strings(), rhs.Strings()),
				})
			}
		}
	}
}

// checkPairwiseConflicts searches for concrete two-rule conflict
// witnesses.
func (e *Engine) checkPairwiseConflicts(rep *ConsistencyReport, rows []*schema.Tuple) {
	rules := e.rules.Rules()
	for i := 0; i < len(rules); i++ {
		for j := i + 1; j < len(rules); j++ {
			r1, r2 := rules[i], rules[j]
			shared := e.sharedTargets(r1, r2)
			if len(shared) == 0 {
				continue
			}
			if !pattern.JointlySatisfiable(r1.When, r2.When, e.input) {
				continue
			}
			e.joinConflictWitness(rep, r1, r2, shared, rows)
		}
	}
}

// sharedTargets returns input attributes fixed by both rules, with the
// master source attribute of each side.
type sharedTarget struct {
	attr     string
	bm1, bm2 string
}

func (e *Engine) sharedTargets(r1, r2 *rule.Rule) []sharedTarget {
	var out []sharedTarget
	for _, c1 := range r1.Set {
		for _, c2 := range r2.Set {
			if c1.Input == c2.Input {
				out = append(out, sharedTarget{attr: c1.Input, bm1: c1.Master, bm2: c2.Master})
			}
		}
	}
	return out
}

// witnessSide is one rule's half of the witness join. Master rows
// (s1, s2) witness a conflict of r1 and r2 when matching s1 via r1 and
// s2 via r2 binds each input attribute to one value, both patterns can
// hold under those bindings, and the rules derive different values for
// a shared target: one filter per side, an equi-join on the attributes
// both rules match, and a test on the targets.
type witnessSide struct {
	agree [][2]int    // master columns one repeated match attribute binds
	conds []boundCond // pattern conditions decided by this side's row
	key   []int       // master columns bound to the jointly matched attributes
}

// boundCond is a pattern condition evaluated on a master column.
type boundCond struct {
	pattern.Condition
	col int
	dom value.Domain
}

// keyOf appends s's join key to dst, or reports false when s fails the
// side's filter.
func (w *witnessSide) keyOf(dst []byte, s *schema.Tuple) ([]byte, bool) {
	for _, p := range w.agree {
		if s.Vals[p[0]] != s.Vals[p[1]] {
			return dst, false
		}
	}
	for _, c := range w.conds {
		if !c.Matches(s.Vals[c.col], c.dom) {
			return dst, false
		}
	}
	for _, col := range w.key {
		dst = value.AppendKeyV(dst, s.Vals[col])
	}
	return dst, true
}

// witnessSides builds both sides of the r1/r2 join. A condition is
// decided on side 1 when r1 matches its attribute, else on side 2 when
// r2 does. The conditions neither rule matches do not depend on the
// rows, so ok reports once whether they are jointly satisfiable.
func (e *Engine) witnessSides(r1, r2 *rule.Rule) (sides [2]witnessSide, ok bool) {
	ms := e.store.Schema()
	var bound [2]map[string]int
	for i, r := range [2]*rule.Rule{r1, r2} {
		bound[i] = make(map[string]int, len(r.Match))
		for _, c := range r.Match {
			col := ms.MustIndex(c.Master)
			if first, seen := bound[i][c.Input]; seen {
				sides[i].agree = append(sides[i].agree, [2]int{first, col})
			} else {
				bound[i][c.Input] = col
			}
		}
	}
	for _, c := range r1.Match {
		if col, both := bound[1][c.Input]; both {
			sides[0].key = append(sides[0].key, bound[0][c.Input])
			sides[1].key = append(sides[1].key, col)
		}
	}
	var free []pattern.Condition
	for _, p := range [2]pattern.Pattern{r1.When, r2.When} {
		for _, c := range p.Conds {
			bc := boundCond{Condition: c, dom: e.input.Domain(c.Attr)}
			var on bool
			if bc.col, on = bound[0][c.Attr]; on {
				sides[0].conds = append(sides[0].conds, bc)
			} else if bc.col, on = bound[1][c.Attr]; on {
				sides[1].conds = append(sides[1].conds, bc)
			} else {
				free = append(free, c)
			}
		}
	}
	return sides, pattern.Satisfiable(pattern.Pattern{Conds: free}, e.input)
}

// joinConflictWitness reports the witness a nested loop over all
// master pairs in table order would report first: a same-tuple witness
// (error severity, never shadowed by a cross-entity warning), else the
// first s1 with its first partner s2 != s1. The cross pass keeps two
// side-2 rows per join group, the first and the first whose targets
// differ from it: for any s1, the first partner whose targets differ
// from s1's is one of the two, and it is never s1 itself once the
// same-tuple pass has found nothing. The cost is O(|master|) per pair.
func (e *Engine) joinConflictWitness(rep *ConsistencyReport, r1, r2 *rule.Rule,
	shared []sharedTarget, rows []*schema.Tuple) {

	sides, ok := e.witnessSides(r1, r2)
	if !ok {
		return
	}
	type group struct{ first, differ *schema.Tuple }
	groups := make(map[string]group)
	var k1, k2 []byte
	var in1, in2 bool // whether s passes each side's filter
	for _, s := range rows {
		if k2, in2 = sides[1].keyOf(k2[:0], s); !in2 {
			continue
		}
		k1, in1 = sides[0].keyOf(k1[:0], s)
		if in1 && string(k1) == string(k2) && recordWitness(rep, r1, r2, shared, s, s) {
			return
		}
		switch g, seen := groups[string(k2)]; {
		case !seen:
			groups[string(k2)] = group{first: s}
		case g.differ == nil && derivedDiffer(shared, g.first, s):
			g.differ = s
			groups[string(k2)] = g
		}
	}
	for _, s1 := range rows {
		if k1, in1 = sides[0].keyOf(k1[:0], s1); !in1 {
			continue
		}
		g, ok := groups[string(k1)]
		if ok && (recordWitness(rep, r1, r2, shared, s1, g.first) ||
			g.differ != nil && recordWitness(rep, r1, r2, shared, s1, g.differ)) {
			return // one witness per rule pair keeps reports readable
		}
	}
}

// derivedDiffer reports whether r2 derives different targets from a and b.
func derivedDiffer(shared []sharedTarget, a, b *schema.Tuple) bool {
	for _, st := range shared {
		if a.Get(st.bm2) != b.Get(st.bm2) {
			return true
		}
	}
	return false
}

// recordWitness records the issue (s1, s2) witnesses when r1 and r2
// derive different values from them for a shared target, and reports
// whether it did.
func recordWitness(rep *ConsistencyReport, r1, r2 *rule.Rule,
	shared []sharedTarget, s1, s2 *schema.Tuple) bool {

	for _, st := range shared {
		v1, v2 := s1.Get(st.bm1), s2.Get(st.bm2)
		if v1 == v2 {
			continue
		}
		sev, note := SeverityWarning, "only reachable by validating attributes of two different master entities"
		if s1.ID == s2.ID {
			// One entity, two derivations: the rules genuinely
			// contradict each other.
			sev, note = SeverityError, "both derivations come from the same master tuple"
		}
		rep.Issues = append(rep.Issues, Issue{
			Kind: IssueRuleConflict, Severity: sev, RuleA: r1.ID, RuleB: r2.ID,
			Attr: st.attr, MasterA: s1.ID, MasterB: s2.ID,
			Detail: fmt.Sprintf("an input matching both rules would get %s=%q from %s but %s=%q from %s (%s)",
				st.attr, string(v1), r1.ID, st.attr, string(v2), r2.ID, note),
		})
		return true
	}
	return false
}

// checkOrderIndependence chases synthesized probe tuples under several
// rule orders and flags outcome differences.
func (e *Engine) checkOrderIndependence(rep *ConsistencyReport, rows []*schema.Tuple) {
	rules := e.rules.Rules()
	if len(rules) < 2 {
		return
	}
	rng := textutil.NewRNG(probeSeed)
	probes := e.synthesizeProbes(rows, rng)
	if len(probes) == 0 {
		return
	}
	// Seed validated sets: every rule-premise union plus each single
	// rule premise (the states the monitor actually passes through).
	seeds := e.probeSeeds(rules)
	orders := e.probeOrders(rules, probeShuffles, rng)
	// One engine (and compiled program) per order, hoisted out of the
	// probe × seed sweep; each gets a reusable chaser for the probes.
	chasers := make([]*Chaser, len(orders))
	names := make([]string, len(orders))
	for i, ord := range orders {
		chasers[i] = e.reordered(ord).NewChaser()
		names[i] = orderName(ord)
	}
	for _, probe := range probes {
		for _, seed := range seeds {
			var baseline *ChaseResult
			var baselineOrder string
			for oi := range orders {
				res := chasers[oi].Chase(probe, seed)
				rep.ProbesRun++
				if baseline == nil {
					baseline, baselineOrder = res, names[oi]
					continue
				}
				if !res.Tuple.Equal(baseline.Tuple) || res.Validated != baseline.Validated {
					rep.Issues = append(rep.Issues, Issue{
						Kind:  IssueOrderDependence,
						RuleA: names[oi],
						RuleB: baselineOrder,
						Detail: fmt.Sprintf("probe %v seeded %s: orders disagree (%v vs %v)",
							probe.Vals.Strings(), seed.Format(e.input),
							res.Tuple.Vals.Strings(), baseline.Tuple.Vals.Strings()),
					})
					return // first divergence suffices
				}
			}
		}
	}
}

// synthesizeProbes builds input tuples from the first probeRows master
// rows by pulling every corresponded master attribute through the
// rules, completing pattern attributes with the constants mentioned in
// rule patterns (both the matching and the complement side) and
// filling the rest with synthetic values.
func (e *Engine) synthesizeProbes(rows []*schema.Tuple, rng *textutil.RNG) []*schema.Tuple {
	rows = rows[:min(len(rows), probeRows)]
	patternConsts := e.patternConstants()
	var probes []*schema.Tuple
	for _, s := range rows {
		base := make(value.List, e.input.Len())
		covered := schema.EmptySet
		for _, r := range e.rules.Rules() {
			for _, c := range append(append([]rule.Correspondence{}, r.Match...), r.Set...) {
				if i, ok := e.input.Index(c.Input); ok && !covered.Has(i) {
					base[i] = s.Get(c.Master)
					covered = covered.With(i)
				}
			}
		}
		for i := 0; i < e.input.Len(); i++ {
			if base[i].IsNull() {
				base[i] = value.V(fmt.Sprintf("probe-%d-%d", s.ID, i))
			}
		}
		// One variant per combination of pattern-attribute constants
		// (bounded); plus the base tuple itself.
		probes = append(probes, &schema.Tuple{Schema: e.input, Vals: base})
		variants := e.patternVariants(base, patternConsts, rng, 4)
		probes = append(probes, variants...)
	}
	return probes
}

// patternConstants maps each pattern attribute to the constants rules
// mention about it (plus one synthetic off-value).
func (e *Engine) patternConstants() map[string][]value.V {
	out := make(map[string][]value.V)
	for _, r := range e.rules.Rules() {
		for _, c := range r.When.Conds {
			vals := out[c.Attr]
			add := func(v value.V) {
				for _, x := range vals {
					if x == v {
						return
					}
				}
				vals = append(vals, v)
			}
			if !c.Const.IsNull() {
				add(c.Const)
			}
			for _, v := range c.Set {
				add(v)
			}
			out[c.Attr] = vals
		}
	}
	for attr, vals := range out {
		out[attr] = append(vals, value.V("off-"+attr))
	}
	return out
}

// patternVariants derives up to n variants of base by assigning pattern
// attributes random choices from their constant pools.
func (e *Engine) patternVariants(base value.List, consts map[string][]value.V, rng *textutil.RNG, n int) []*schema.Tuple {
	if len(consts) == 0 {
		return nil
	}
	attrs := make([]string, 0, len(consts))
	for a := range consts {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	var out []*schema.Tuple
	for v := 0; v < n; v++ {
		vals := make(value.List, len(base))
		copy(vals, base)
		for _, a := range attrs {
			if i, ok := e.input.Index(a); ok {
				vals[i] = textutil.Pick(rng, consts[a])
			}
		}
		out = append(out, &schema.Tuple{Schema: e.input, Vals: vals})
	}
	return out
}

// probeSeeds lists the validated-set seeds to chase from.
func (e *Engine) probeSeeds(rules []*rule.Rule) []schema.AttrSet {
	union := schema.EmptySet
	var seeds []schema.AttrSet
	seen := make(map[schema.AttrSet]bool)
	for _, r := range rules {
		p := r.PremiseAttrs(e.input)
		union = union.Union(p)
		if !seen[p] {
			seen[p] = true
			seeds = append(seeds, p)
		}
	}
	if !seen[union] {
		seeds = append(seeds, union)
	}
	return seeds
}

// probeOrders returns the rule orders to compare: canonical, reversed,
// and extra random shuffles.
func (e *Engine) probeOrders(rules []*rule.Rule, extra int, rng *textutil.RNG) [][]*rule.Rule {
	canonical := append([]*rule.Rule(nil), rules...)
	reversed := make([]*rule.Rule, len(rules))
	for i, r := range rules {
		reversed[len(rules)-1-i] = r
	}
	orders := [][]*rule.Rule{canonical, reversed}
	for i := 0; i < extra; i++ {
		shuffled := append([]*rule.Rule(nil), rules...)
		textutil.Shuffle(rng, shuffled)
		orders = append(orders, shuffled)
	}
	return orders
}

func orderName(rules []*rule.Rule) string {
	ids := make([]string, len(rules))
	for i, r := range rules {
		ids[i] = r.ID
	}
	return strings.Join(ids, ">")
}

// reordered builds a sibling engine sharing the master store but
// scanning rules in the given order (used only by probing; the store's
// indexes are already in place).
func (e *Engine) reordered(order []*rule.Rule) *Engine {
	rs := rule.MustSet(order...)
	// Recompile: the chase program bakes in rule order (the agenda's
	// firing-order guarantee), which is exactly what probing varies.
	return &Engine{input: e.input, rules: rs, store: e.store, prog: compileProgram(e.input, rs.Rules())}
}
