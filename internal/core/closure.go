package core

import (
	"sort"

	"cerfix/internal/rule"
	"cerfix/internal/schema"
)

// This file implements the inference system of the rule engine:
// "provided that some attributes of a tuple are correct, it
// automatically derives what other attributes can be validated by
// using editing rules and master data" (paper §2). The derivation is
// symbolic at the attribute level: a rule can extend the validated set
// from Z to Z ∪ B whenever its premise X ∪ Xp ⊆ Z and its pattern is
// assumed to hold. Whether the pattern holds and whether master data
// actually covers the key are supplied by the caller: the monitor
// passes the concrete tuple (both checks concrete), the region finder
// passes a pattern-cell assumption (master coverage handled by tableau
// instantiation).

// RuleFilter decides which rules participate in a symbolic closure.
// Returning false excludes the rule (e.g. its pattern cannot hold in
// the current pattern cell).
type RuleFilter func(r *rule.Rule) bool

// AllRules is the filter that admits every rule.
func AllRules(*rule.Rule) bool { return true }

// Derivation is a rule list as the symbolic closure sees it: the
// admitted rules, in rule order, each with its premise X ∪ Xp and its
// targets B resolved to bitsets. The filter and the attribute names
// are resolved once when it is built, so every closure step is bitset
// arithmetic; the region finder builds one per pattern cell and the
// monitor one per suggestion.
type Derivation struct {
	input *schema.Schema
	rules []derivationRule
}

// derivationRule is one admitted rule's attribute-level effect.
type derivationRule struct {
	id               string
	premise, targets schema.AttrSet
}

// NewDerivation resolves the rules admit admits (nil admits all)
// against the input schema.
func NewDerivation(input *schema.Schema, rules []*rule.Rule, admit RuleFilter) *Derivation {
	d := &Derivation{input: input}
	for _, r := range rules {
		if admit == nil || admit(r) {
			d.rules = append(d.rules, derivationRule{id: r.ID, premise: r.PremiseAttrs(input), targets: r.TargetAttrs(input)})
		}
	}
	return d
}

// Derivation is NewDerivation over the engine's rules, taking each
// rule's sets from the compiled program instead of resolving names.
func (e *Engine) Derivation(admit RuleFilter) *Derivation {
	d := &Derivation{input: e.input}
	for i := range e.prog.rules {
		cr := &e.prog.rules[i]
		if admit == nil || admit(cr.src) {
			d.rules = append(d.rules, derivationRule{id: cr.id, premise: cr.premise, targets: cr.targets})
		}
	}
	return d
}

// Targets returns the union of the admitted rules' targets: every
// attribute some admitted rule can validate.
func (d *Derivation) Targets() schema.AttrSet {
	out := schema.EmptySet
	for _, r := range d.rules {
		out = out.Union(r.targets)
	}
	return out
}

// Closure computes the validated-attribute closure of seed under the
// admitted rules: the largest set reachable by repeatedly firing rules
// whose premises are contained in the running set. Master coverage is
// assumed (see package comment); the result is therefore an upper
// bound on what a concrete chase can validate.
func (d *Derivation) Closure(seed schema.AttrSet) schema.AttrSet {
	return d.fixpoint(seed, nil)
}

// fixpoint is the closure loop. Rules are considered in rule order,
// round after round, until a round validates nothing new; step, when
// not nil, sees each productive firing with the attributes it adds.
func (d *Derivation) fixpoint(seed schema.AttrSet, step func(r *derivationRule, gives schema.AttrSet)) schema.AttrSet {
	cur := seed
	for {
		grew := false
		for i := range d.rules {
			r := &d.rules[i]
			if !cur.ContainsAll(r.premise) || cur.ContainsAll(r.targets) {
				continue
			}
			if step != nil {
				step(r, r.targets.Minus(cur))
			}
			cur = cur.Union(r.targets)
			grew = true
		}
		if !grew {
			return cur
		}
	}
}

// MinimalExtension finds a minimum-cardinality set Δ of attributes such
// that Closure(seed ∪ Δ) covers all of goal. This is the monitor's "new
// suggestion" computation: the minimal number of attributes the user
// should validate next (paper §2, data monitor step 3).
//
// The problem generalizes set cover, so exact search is exponential;
// we run breadth-first over candidate subsets in ascending size with
// pruning, which is exact and fast for the schema widths the system
// targets (≤ ~20 attributes). For wider schemas use GreedyExtension.
func (d *Derivation) MinimalExtension(seed, goal schema.AttrSet) schema.AttrSet {
	// Candidate attributes: anything in goal not derivable plus any
	// premise attribute that could unlock rules. Conservatively: all
	// attributes not already in the seed's closure.
	base := d.Closure(seed)
	if base.ContainsAll(goal) {
		return schema.EmptySet
	}
	var candidates []int
	for i := 0; i < d.input.Len(); i++ {
		if !base.Has(i) {
			candidates = append(candidates, i)
		}
	}
	// BFS by subset size: the first size-k subset, in lexicographic
	// order, whose extension closure covers goal.
	for size := 1; size <= len(candidates); size++ {
		found := schema.EmptySet
		ForEachSubset(candidates, size, func(delta schema.AttrSet) bool {
			if d.Closure(seed.Union(delta)).ContainsAll(goal) {
				found = delta
				return false
			}
			return true
		})
		if !found.IsEmpty() {
			return found
		}
	}
	return schema.SetOf(candidates...) // everything (should be covered by loop)
}

// ForEachSubset enumerates the size-k subsets of candidates in
// lexicographic order of their indexes; fn returning false stops the
// enumeration. k = 0 yields the empty set once.
func ForEachSubset(candidates []int, k int, fn func(schema.AttrSet) bool) {
	if k > len(candidates) {
		return
	}
	if k == 0 {
		fn(schema.EmptySet)
		return
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		s := schema.EmptySet
		for _, i := range idx {
			s = s.With(candidates[i])
		}
		if !fn(s) {
			return
		}
		i := k - 1
		for i >= 0 && idx[i] == len(candidates)-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// GreedyExtension approximates MinimalExtension in polynomial time:
// repeatedly add the candidate attribute whose addition grows the
// closure the most (ties broken by schema position). Guaranteed to
// terminate with a covering set; size within the usual ln(n) set-cover
// factor of optimal in the common case.
func (d *Derivation) GreedyExtension(seed, goal schema.AttrSet) schema.AttrSet {
	delta := schema.EmptySet
	cur := seed
	for {
		closureNow := d.Closure(cur)
		if closureNow.ContainsAll(goal) {
			return delta
		}
		bestGain, bestAttr := 0, -1
		coveredNow := closureNow.Intersect(goal).Count()
		for i := 0; i < d.input.Len(); i++ {
			if closureNow.Has(i) || delta.Has(i) {
				continue
			}
			// Gain counts newly covered *goal* attributes only; adding
			// an attribute that unlocks rules but covers no goal is
			// useless for the cover.
			gain := d.Closure(cur.With(i)).Intersect(goal).Count() - coveredNow
			if gain > bestGain {
				bestGain, bestAttr = gain, i
			}
		}
		if bestAttr < 0 {
			// No single candidate covers new goal attributes (goal
			// unreachable by rules): validate the remainder directly.
			missing := goal.Minus(closureNow)
			return delta.Union(missing)
		}
		delta = delta.With(bestAttr)
		cur = cur.With(bestAttr)
	}
}

// DeadAttrs returns the attributes no rule can ever fix (they appear in
// no rule's target set). These must be validated by the user in every
// session — e.g. the demo's "item" attribute.
func DeadAttrs(input *schema.Schema, rules []*rule.Rule) schema.AttrSet {
	return schema.FullSet(input).Minus(NewDerivation(input, rules, nil).Targets())
}

// SortAttrNames resolves an AttrSet to sorted attribute names — the
// stable order used when presenting suggestions to users.
func SortAttrNames(input *schema.Schema, s schema.AttrSet) []string {
	names := s.Names(input)
	sort.Strings(names)
	return names
}
