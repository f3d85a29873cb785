package region

import (
	"fmt"
	"sort"
	"strings"

	"cerfix/internal/core"
	"cerfix/internal/pattern"
	"cerfix/internal/rule"
	"cerfix/internal/schema"
	"cerfix/internal/value"
)

// This file keeps the finder as it was before rows were verified
// through a per-(cell, Z) plan, as the reference FuzzRegionRows holds
// TopK to. Its row verification (refInstantiateRows and
// refCanonicalProbe) builds a satisfiability test per binding, a junk
// probe per row and a fresh chase result per row; its Z search
// (refMinimalZSets) resolves every rule's premise and targets on each
// closure step. Only the names differ from the original code.

// refTopK is TopK over the reference row verification and Z search.
func refTopK(f *Finder, opts *Options) []*Region {
	o := opts.withDefaults()
	input := f.eng.InputSchema()
	rules := f.eng.Rules().Rules()

	byZ := make(map[schema.AttrSet]*Region)
	for _, c := range f.enumerateCells(o) {
		admit := func(r *rule.Rule) bool {
			if r.When.IsEmpty() {
				return true
			}
			return c.active[r.ID]
		}
		zs := f.refMinimalZSets(c, admit, o)
		for _, z := range zs {
			reg, ok := byZ[z]
			if !ok {
				reg = &Region{
					Z:       z,
					Tableau: pattern.NewTableau(input, z.SortedNames(input)),
					input:   input,
				}
				byZ[z] = reg
			}
			added := f.refInstantiateRows(reg, z, c, admit, rules)
			if added > 0 {
				reg.Cells = append(reg.Cells, c.name)
			}
		}
	}
	var out []*Region
	for _, reg := range byZ {
		if len(reg.Tableau.Rows) > 0 {
			out = append(out, reg)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Size() != out[j].Size() {
			return out[i].Size() < out[j].Size()
		}
		return strings.Join(out[i].AttrNames(), ",") < strings.Join(out[j].AttrNames(), ",")
	})
	if o.K > 0 && len(out) > o.K {
		out = out[:o.K]
	}
	return out
}

// refMinimalZSets finds minimal attribute sets whose closure under the
// cell's active rules covers the schema. Every Z must contain the
// cell-dead attributes (those no active rule targets).
func (f *Finder) refMinimalZSets(c cell, admit core.RuleFilter, o Options) []schema.AttrSet {
	input := f.eng.InputSchema()
	rules := f.eng.Rules().Rules()
	full := schema.FullSet(input)

	// Attributes targeted by active rules.
	fixable := schema.EmptySet
	for _, r := range rules {
		if admit(r) {
			fixable = fixable.Union(r.TargetAttrs(input))
		}
	}
	dead := full.Minus(fixable)

	if o.Greedy {
		delta := refGreedyExtension(input, rules, dead, full, admit)
		return []schema.AttrSet{dead.Union(delta)}
	}

	// Exact: enumerate subsets of fixable attributes ascending by size,
	// added on top of the mandatory dead set; keep inclusion-minimal
	// covering sets.
	candidates := fixable.Positions()
	maxSize := len(candidates)
	if o.MaxExactSubsetSize > 0 && o.MaxExactSubsetSize < maxSize {
		maxSize = o.MaxExactSubsetSize
	}
	var found []schema.AttrSet
	for size := 0; size <= maxSize && len(found) < o.MaxRegionsPerCell; size++ {
		refForEachSubset(candidates, size, func(sub schema.AttrSet) bool {
			z := dead.Union(sub)
			if refClosure(input, rules, z, admit) != full {
				return true
			}
			// Inclusion-minimality: removing any single element of sub
			// must break coverage (dead elements are mandatory).
			for _, p := range sub.Positions() {
				if refClosure(input, rules, z.Without(p), admit) == full {
					return true
				}
			}
			found = append(found, z)
			return len(found) < o.MaxRegionsPerCell
		})
	}
	return found
}

// refForEachSubset enumerates size-k subsets of candidates; fn
// returning false stops the enumeration.
func refForEachSubset(candidates []int, k int, fn func(schema.AttrSet) bool) {
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

// refClosure computes the validated-attribute closure of seed under the
// admitted rules: the largest set reachable by repeatedly firing rules
// whose premises are contained in the running set.
func refClosure(input *schema.Schema, rules []*rule.Rule, seed schema.AttrSet, admit core.RuleFilter) schema.AttrSet {
	cur := seed
	for {
		grew := false
		for _, r := range rules {
			if admit != nil && !admit(r) {
				continue
			}
			premise := r.PremiseAttrs(input)
			if !cur.ContainsAll(premise) {
				continue
			}
			targets := r.TargetAttrs(input)
			if !cur.ContainsAll(targets) {
				cur = cur.Union(targets)
				grew = true
			}
		}
		if !grew {
			return cur
		}
	}
}

// refGreedyExtension repeatedly adds the candidate attribute whose
// addition grows the closure the most (ties broken by schema
// position).
func refGreedyExtension(input *schema.Schema, rules []*rule.Rule, seed, goal schema.AttrSet, admit core.RuleFilter) schema.AttrSet {
	delta := schema.EmptySet
	cur := seed
	for !refClosure(input, rules, cur, admit).ContainsAll(goal) {
		bestGain, bestAttr := 0, -1
		closureNow := refClosure(input, rules, cur, admit)
		coveredNow := closureNow.Intersect(goal).Count()
		for i := 0; i < input.Len(); i++ {
			if closureNow.Has(i) || delta.Has(i) {
				continue
			}
			// Gain counts newly covered *goal* attributes only; adding
			// an attribute that unlocks rules but covers no goal is
			// useless for the cover.
			gain := refClosure(input, rules, cur.With(i), admit).Intersect(goal).Count() - coveredNow
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
	return delta
}

// refRowBinding pins one Z attribute of a tableau row to a master
// attribute's value.
type refRowBinding struct {
	inputIdx   int
	masterAttr string
}

// refInstantiateRows adds one tableau row per master tuple whose
// row-canonical tuple chases to a full validation. Returns the number
// of rows added.
func (f *Finder) refInstantiateRows(reg *Region, z schema.AttrSet, c cell, admit core.RuleFilter, rules []*rule.Rule) int {
	input := f.eng.InputSchema()
	added := 0
	// Attributes of Z bound by active-rule match correspondences: the
	// row pins them to the master tuple's values.
	var bindings []refRowBinding
	bound := schema.EmptySet
	for _, r := range rules {
		if !admit(r) {
			continue
		}
		for _, corr := range r.Match {
			if i, ok := input.Index(corr.Input); ok && z.Has(i) && !bound.Has(i) {
				bound = bound.With(i)
				bindings = append(bindings, refRowBinding{inputIdx: i, masterAttr: corr.Master})
			}
		}
	}
	// Cell constraints restricted to Z become row conditions; cell
	// constraints outside Z are applied to the canonical probe only.
	var rowConds, probeConds []pattern.Condition
	for _, cond := range c.constraint.Conds {
		if i, ok := input.Index(cond.Attr); ok && z.Has(i) {
			rowConds = append(rowConds, cond)
		} else {
			probeConds = append(probeConds, cond)
		}
	}
	// Stored rows are immutable, so they are read in place: a tableau
	// row keeps their values, never the tuple.
	f.eng.Master().Table().ScanShared(func(s *schema.Tuple) bool {
		conds := append([]pattern.Condition{}, rowConds...)
		for _, b := range bindings {
			v := s.Get(b.masterAttr)
			conds = append(conds, pattern.Eq(input.Attr(b.inputIdx).Name, v))
			// The row must stay satisfiable together with the cell
			// constraint (e.g. AC=0800 cell with a master AC of 131
			// cannot produce a row).
			if !pattern.Satisfiable(pattern.NewPattern(append(append([]pattern.Condition{}, c.constraint.Conds...), conds...)...), input) {
				return true
			}
		}
		probe, built := f.refCanonicalProbe(z, s, bindings, probeConds, conds)
		if !built {
			return true
		}
		res := f.eng.Chase(probe, z)
		if !res.AllValidated() || len(res.Conflicts) > 0 {
			return true
		}
		if reg.Tableau.AddRow(pattern.NewPattern(conds...)) {
			added++
		}
		return true
	})
	return added
}

// refCanonicalProbe builds the representative tuple of a row: bound Z
// attributes take the master values, pattern-constrained attributes
// take satisfying constants, everything else a junk marker.
func (f *Finder) refCanonicalProbe(z schema.AttrSet, s *schema.Tuple,
	bindings []refRowBinding,
	probeConds, rowConds []pattern.Condition) (*schema.Tuple, bool) {

	input := f.eng.InputSchema()
	vals := make(value.List, input.Len())
	for i := range vals {
		vals[i] = value.V(fmt.Sprintf("junk-%d", i))
	}
	for _, b := range bindings {
		vals[b.inputIdx] = s.Get(b.masterAttr)
	}
	// Satisfy equality/inequality conditions (row + probe) on
	// still-junk attributes.
	for _, cond := range append(append([]pattern.Condition{}, rowConds...), probeConds...) {
		i, ok := input.Index(cond.Attr)
		if !ok {
			return nil, false
		}
		switch cond.Op {
		case pattern.OpEq:
			vals[i] = cond.Const
		case pattern.OpIn:
			if len(cond.Set) > 0 && strings.HasPrefix(string(vals[i]), "junk-") {
				vals[i] = cond.Set[0]
			}
		}
	}
	probe := &schema.Tuple{Schema: input, Vals: vals}
	// Verify all conditions actually hold on the probe (inequalities
	// hold against junk values by construction; equality conflicts
	// surface here).
	for _, cond := range append(append([]pattern.Condition{}, rowConds...), probeConds...) {
		i, _ := input.Index(cond.Attr)
		if !cond.Matches(vals[i], input.Attr(i).Domain) {
			return nil, false
		}
	}
	return probe, true
}
