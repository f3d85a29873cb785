// Package region implements CerFix's region finder. A certain region
// (Z, Tc) is a list Z of input attributes plus a pattern tableau Tc
// such that for any input tuple t, if t[Z] is correct (validated) and
// t[Z] matches some row of Tc, the editing rules and master data
// warrant a certain fix for every attribute of t (paper §2).
//
// The computation factors the guarantee into two parts:
//
//   - derivation: in a fixed "pattern cell" (an assignment of
//     true/false to each distinct rule pattern, conjunctively
//     satisfiable), the validated-attribute closure of Z under the
//     cell's active rules must cover the whole schema. This is the
//     symbolic part (core.Closure), independent of master data.
//
//   - coverage: a matching master tuple must exist for every rule
//     application along the derivation. Tableau rows are instantiated
//     from concrete master tuples and then *verified by actually
//     chasing* a canonical tuple of the row: the row is kept only if
//     the chase validates every attribute without conflicts. Because
//     the chase outcome is uniform across all tuples matching a row
//     (every non-wildcard attribute the derivation reads is pinned by
//     the row), the verification transfers to the whole row.
//
// Minimal-Z search is exact (subset enumeration by ascending size,
// inclusion-minimality check) for small schemas and greedy for wide
// ones. Finding minimum regions is intractable in general [7]; the
// search caps in Options keep the Z search bounded. Tableaux are not
// capped: each holds one row per verified master tuple and cell, keyed
// on the values the row pins (pattern.Tableau), so building one is
// linear in master size and Covers costs one probe per row group.
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

// Region is one certain region.
type Region struct {
	// Z is the attribute set the user must validate.
	Z schema.AttrSet
	// Tableau holds the pattern rows over Z; a tuple is covered when
	// its Z-projection matches at least one row.
	Tableau *pattern.Tableau
	// Cells names the pattern cells that contributed rows (diagnostic).
	Cells []string
	// input is retained for display.
	input *schema.Schema
}

// Size returns |Z| — the paper ranks regions ascendingly by it.
func (r *Region) Size() int { return r.Z.Count() }

// AttrNames returns Z as sorted attribute names.
func (r *Region) AttrNames() []string { return r.Z.SortedNames(r.input) }

// Covers reports whether t is covered: t[Z] must match a tableau row.
// (Correctness of t[Z] is the user's assertion and cannot be checked
// here.) It is exact at any master size and costs one probe per row
// group of the tableau.
func (r *Region) Covers(t *schema.Tuple) bool { return r.Tableau.Matches(t) }

// String renders "({a, b}, 3 rows)".
func (r *Region) String() string {
	return fmt.Sprintf("({%s}, %d rows)", strings.Join(r.AttrNames(), ", "), len(r.Tableau.Rows))
}

// Options tunes the finder. Its caps bound the search for Z sets;
// tableaux keep every verified row.
type Options struct {
	// K is the number of regions to return (top-k by ascending |Z|);
	// 0 means all found.
	K int
	// Greedy switches the minimal-Z search from exact subset
	// enumeration to the polynomial greedy cover. Exact is the default
	// and is feasible up to ~20 non-dead attributes.
	Greedy bool
	// MaxRegionsPerCell caps how many minimal Z sets are collected per
	// pattern cell (0 = default 8).
	MaxRegionsPerCell int
	// MaxCells caps pattern-cell enumeration (0 = default 64).
	MaxCells int
	// MaxExactSubsetSize caps the subset size the exact search will
	// enumerate (0 = default: all sizes).
	MaxExactSubsetSize int
}

func (o *Options) withDefaults() Options {
	out := Options{MaxRegionsPerCell: 8, MaxCells: 64}
	if o == nil {
		return out
	}
	out.K = o.K
	out.Greedy = o.Greedy
	if o.MaxRegionsPerCell > 0 {
		out.MaxRegionsPerCell = o.MaxRegionsPerCell
	}
	if o.MaxCells > 0 {
		out.MaxCells = o.MaxCells
	}
	out.MaxExactSubsetSize = o.MaxExactSubsetSize
	return out
}

// Finder computes certain regions for an engine's configuration.
type Finder struct {
	eng *core.Engine
}

// rowBinding pins one Z attribute of a tableau row to a master
// attribute's value.
type rowBinding struct {
	inputIdx   int
	masterAttr string
}

// NewFinder wraps an engine.
func NewFinder(eng *core.Engine) *Finder { return &Finder{eng: eng} }

// cell is one satisfiable pattern-cell: which rule patterns hold plus
// the conjunctive constraint describing the cell.
type cell struct {
	name       string
	constraint pattern.Pattern
	active     map[string]bool // rule ID -> pattern holds
}

// TopK computes regions and returns the k best (ascending |Z|, ties by
// attribute names). These are the monitor's pre-computed initial
// suggestions.
func (f *Finder) TopK(opts *Options) []*Region {
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
		zs := f.minimalZSets(c, admit, o)
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
			added := f.instantiateRows(reg, z, c, admit, rules)
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

// enumerateCells builds the satisfiable pattern cells over the rule
// set's distinct patterns. For assignments marking a pattern false, the
// pattern's negation branches multiply the cell (bounded by MaxCells).
func (f *Finder) enumerateCells(o Options) []cell {
	input := f.eng.InputSchema()
	pats := f.eng.Rules().DistinctPatterns()
	// Map each rule to the index of its pattern (or -1 for empty).
	rulePat := make(map[string]int)
	for _, r := range f.eng.Rules().Rules() {
		rulePat[r.ID] = -1
		for i, p := range pats {
			if p.String() == r.When.String() {
				rulePat[r.ID] = i
				break
			}
		}
	}
	cells := []cell{{name: "all", constraint: pattern.NewPattern(), active: map[string]bool{}}}
	for i, p := range pats {
		var next []cell
		for _, c := range cells {
			// Pattern i true.
			pos := pattern.Pattern{Conds: append(append([]pattern.Condition{}, c.constraint.Conds...), p.Conds...)}
			if pattern.Satisfiable(pos, input) {
				nc := cell{name: cellName(c.name, i, true), constraint: pos, active: cloneActive(c.active)}
				markActive(nc.active, rulePat, i, true)
				next = append(next, nc)
			}
			// Pattern i false: one cell per negation branch.
			for bi, neg := range pattern.Negate(p) {
				negc := pattern.Pattern{Conds: append(append([]pattern.Condition{}, c.constraint.Conds...), neg.Conds...)}
				if pattern.Satisfiable(negc, input) {
					nc := cell{
						name:       fmt.Sprintf("%s-b%d", cellName(c.name, i, false), bi),
						constraint: negc,
						active:     cloneActive(c.active),
					}
					markActive(nc.active, rulePat, i, false)
					next = append(next, nc)
				}
			}
			if len(next) >= o.MaxCells {
				break
			}
		}
		cells = next
		if len(cells) >= o.MaxCells {
			cells = cells[:o.MaxCells]
		}
	}
	return cells
}

func cellName(prev string, i int, val bool) string {
	sign := "+"
	if !val {
		sign = "-"
	}
	if prev == "all" {
		return fmt.Sprintf("p%d%s", i, sign)
	}
	return fmt.Sprintf("%s.p%d%s", prev, i, sign)
}

func cloneActive(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func markActive(active map[string]bool, rulePat map[string]int, patIdx int, val bool) {
	for id, pi := range rulePat {
		if pi == patIdx {
			active[id] = val
		}
	}
}

// minimalZSets finds minimal attribute sets whose closure under the
// cell's active rules covers the schema. Every Z must contain the
// cell-dead attributes (those no active rule targets).
func (f *Finder) minimalZSets(c cell, admit core.RuleFilter, o Options) []schema.AttrSet {
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
		delta := core.GreedyExtension(input, rules, dead, full, admit)
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
		forEachSubset(candidates, size, func(sub schema.AttrSet) bool {
			z := dead.Union(sub)
			if core.Closure(input, rules, z, admit) != full {
				return true
			}
			// Inclusion-minimality: removing any single element of sub
			// must break coverage (dead elements are mandatory).
			for _, p := range sub.Positions() {
				if core.Closure(input, rules, z.Without(p), admit) == full {
					return true
				}
			}
			found = append(found, z)
			return len(found) < o.MaxRegionsPerCell
		})
	}
	return found
}

// forEachSubset enumerates size-k subsets of candidates; fn returning
// false stops the enumeration.
func forEachSubset(candidates []int, k int, fn func(schema.AttrSet) bool) {
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

// instantiateRows adds one tableau row per master tuple whose
// row-canonical tuple chases to a full validation. Returns the number
// of rows added.
func (f *Finder) instantiateRows(reg *Region, z schema.AttrSet, c cell, admit core.RuleFilter, rules []*rule.Rule) int {
	input := f.eng.InputSchema()
	added := 0
	// Attributes of Z bound by active-rule match correspondences: the
	// row pins them to the master tuple's values.
	var bindings []rowBinding
	bound := schema.EmptySet
	for _, r := range rules {
		if !admit(r) {
			continue
		}
		for _, corr := range r.Match {
			if i, ok := input.Index(corr.Input); ok && z.Has(i) && !bound.Has(i) {
				bound = bound.With(i)
				bindings = append(bindings, rowBinding{inputIdx: i, masterAttr: corr.Master})
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
		probe, built := f.canonicalProbe(z, s, bindings, probeConds, conds)
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

// canonicalProbe builds the representative tuple of a row: bound Z
// attributes take the master values, pattern-constrained attributes
// take satisfying constants, everything else a junk marker.
func (f *Finder) canonicalProbe(z schema.AttrSet, s *schema.Tuple,
	bindings []rowBinding,
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
