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
//     symbolic part (core.Derivation), independent of master data.
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
	"strconv"
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
// suggestions. K only cuts the ranking short: distinct Z sets never
// tie, so the first k regions of a run with K = 0 are a run with K = k.
func (f *Finder) TopK(opts *Options) []*Region {
	o := opts.withDefaults()
	input := f.eng.InputSchema()
	rules := f.eng.Rules().Rules()
	// One chaser verifies every row of the run; each verification reads
	// its scratch result before the next chase.
	ch := f.eng.AcquireChaser()
	defer ch.Release()

	byZ := make(map[schema.AttrSet]*Region)
	for _, c := range f.enumerateCells(o) {
		admit := func(r *rule.Rule) bool {
			if r.When.IsEmpty() {
				return true
			}
			return c.active[r.ID]
		}
		for _, z := range f.minimalZSets(f.eng.Derivation(admit), o) {
			reg, ok := byZ[z]
			if !ok {
				reg = &Region{
					Z:       z,
					Tableau: pattern.NewTableau(input, z.SortedNames(input)),
					input:   input,
				}
				byZ[z] = reg
			}
			if f.instantiateRows(reg, f.newRowPlan(z, c, admit, rules, ch)) > 0 {
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
// cell's active rules (d) covers the schema. Every Z must contain the
// cell-dead attributes (those no active rule targets).
func (f *Finder) minimalZSets(d *core.Derivation, o Options) []schema.AttrSet {
	full := schema.FullSet(f.eng.InputSchema())
	fixable := d.Targets()
	dead := full.Minus(fixable)

	if o.Greedy {
		return []schema.AttrSet{dead.Union(d.GreedyExtension(dead, full))}
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
		core.ForEachSubset(candidates, size, func(sub schema.AttrSet) bool {
			z := dead.Union(sub)
			if d.Closure(z) != full {
				return true
			}
			// Inclusion-minimality: removing any single element of sub
			// must break coverage (dead elements are mandatory).
			for _, p := range sub.Positions() {
				if d.Closure(z.Without(p)) == full {
					return true
				}
			}
			found = append(found, z)
			return len(found) < o.MaxRegionsPerCell
		})
	}
	return found
}

// rowPlan is what verifying the tableau rows of one (cell, Z) needs
// and no master row changes, built once before the master scan. A row
// is kept iff it stays satisfiable with the cell, its canonical probe
// satisfies every cell condition, and chasing the probe with Z
// validated validates every attribute without a conflict. Per master
// row, verify only reads the bound values, checks them, writes them
// into the one probe and chases it.
type rowPlan struct {
	z schema.AttrSet
	// rowConds are the cell's conditions on Z attributes, in cell
	// order: every row's pattern starts with them.
	rowConds []pattern.Condition
	bindings []rowBinding
	// probe is the rows' canonical tuple. Every unbound attribute
	// already holds its value, a junk marker or a constant that
	// satisfies the cell, and has been checked; verify writes the
	// bound values over the rest.
	probe schema.Tuple
	// none is set when no master row can pass: the cell's conditions
	// on some attribute other than the first bound one are
	// unsatisfiable, a condition names an attribute outside the input
	// schema, or the probe fails a condition on an unbound attribute.
	none bool
	ch   *core.Chaser
	// buf holds the conditions of the row being added.
	buf []pattern.Condition
}

// rowBinding pins one Z attribute of a tableau row to a master
// attribute's value.
type rowBinding struct {
	inputIdx, masterIdx int
	attr                string
	dom                 value.Domain
	// admits is the cell's conditions on the attribute folded into
	// one check: Satisfiable(cell ∧ row conditions ∧ attr = v),
	// restricted to the attribute.
	admits pattern.PinCheck
	// conds are the row conditions on the attribute; the probe must
	// match each of them with the bound value.
	conds []pattern.Condition
}

// newRowPlan builds the plan of (cell c, Z). Attributes of Z bound by
// active-rule match correspondences become bindings: a row pins them
// to the master tuple's values. Cell conditions on Z become row
// conditions; the others constrain the canonical probe only.
//
// Satisfiable(cell ∧ row conditions ∧ pins 1..k) must hold after each
// pin k. It decomposes per attribute, so it reduces to two checks:
// every attribute but the first bound one is satisfiable unpinned,
// checked here, and each bound value passes its attribute's folded
// PinCheck. The folded lists keep the row conditions' second copy in
// cell order, because under DInt and DFloat the order of = constants
// matters ("NaN" equals every number).
//
// The probe starts with junk-i in every attribute; the row and probe
// conditions then set each = constant and, over a junk value, each
// IN's first member. A bound attribute ends with its master value,
// because its pin comes last, so the template built and checked here
// covers every unbound attribute, and verify checks each bound value
// against its row conditions. The pin itself always matches: a value
// equals itself in every domain.
func (f *Finder) newRowPlan(z schema.AttrSet, c cell, admit core.RuleFilter, rules []*rule.Rule, ch *core.Chaser) *rowPlan {
	input := f.eng.InputSchema()
	masterSch := f.eng.Master().Schema()
	p := &rowPlan{z: z, ch: ch}
	bound := schema.EmptySet
	for _, r := range rules {
		if !admit(r) {
			continue
		}
		for _, corr := range r.Match {
			if i, ok := input.Index(corr.Input); ok && z.Has(i) && !bound.Has(i) {
				bound = bound.With(i)
				p.bindings = append(p.bindings, rowBinding{
					inputIdx:  i,
					masterIdx: masterSch.MustIndex(corr.Master),
					attr:      input.Attr(i).Name,
					dom:       input.Attr(i).Domain,
				})
			}
		}
	}
	var probeConds []pattern.Condition
	for _, cond := range c.constraint.Conds {
		if i, ok := input.Index(cond.Attr); ok && z.Has(i) {
			p.rowConds = append(p.rowConds, cond)
		} else {
			probeConds = append(probeConds, cond)
		}
	}

	static := append(append([]pattern.Condition(nil), c.constraint.Conds...), p.rowConds...)
	if len(p.bindings) > 0 {
		first := p.bindings[0].attr
		var rest []pattern.Condition
		for _, cond := range static {
			if cond.Attr != first {
				rest = append(rest, cond)
			}
		}
		if !pattern.Satisfiable(pattern.Pattern{Conds: rest}, input) {
			p.none = true
			return p
		}
	}
	for i := range p.bindings {
		b := &p.bindings[i]
		b.admits = pattern.FoldPin(b.attr, condsOn(static, b.attr), input)
		b.conds = condsOn(p.rowConds, b.attr)
	}

	vals := make(value.List, input.Len())
	for i := range vals {
		vals[i] = value.V("junk-" + strconv.Itoa(i))
	}
	probeAll := append(append([]pattern.Condition(nil), p.rowConds...), probeConds...)
	for _, cond := range probeAll {
		i, ok := input.Index(cond.Attr)
		if !ok {
			p.none = true
			return p
		}
		if bound.Has(i) {
			continue
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
	for _, cond := range probeAll {
		i, _ := input.Index(cond.Attr)
		if !bound.Has(i) && !cond.Matches(vals[i], input.Attr(i).Domain) {
			p.none = true
			return p
		}
	}
	p.probe = schema.Tuple{Schema: input, Vals: vals}
	return p
}

// condsOn returns the conditions of conds on attr, in order.
func condsOn(conds []pattern.Condition, attr string) []pattern.Condition {
	var out []pattern.Condition
	for _, c := range conds {
		if c.Attr == attr {
			out = append(out, c)
		}
	}
	return out
}

// verify reports whether master tuple s yields a row of the plan's
// (cell, Z): its bound values pass the folded satisfiability check and
// the probe's row conditions, and the probe carrying them chases to a
// full validation without a conflict. It allocates nothing in steady
// state.
func (p *rowPlan) verify(s *schema.Tuple) bool {
	if p.none {
		return false
	}
	for i := range p.bindings {
		b := &p.bindings[i]
		v := s.Vals[b.masterIdx]
		if !b.admits.Admits(v) {
			return false
		}
		for _, cond := range b.conds {
			if !cond.Matches(v, b.dom) {
				return false
			}
		}
		p.probe.Vals[b.inputIdx] = v
	}
	res := p.ch.ChaseScratch(&p.probe, p.z)
	return res.AllValidated() && len(res.Conflicts) == 0
}

// row writes the tableau row s yields, the row conditions and then one
// = pin per binding, into the plan's row buffer. The buffer is reused
// until a tableau keeps a row, which then owns it.
func (p *rowPlan) row(s *schema.Tuple) pattern.Pattern {
	if p.buf == nil {
		p.buf = make([]pattern.Condition, 0, len(p.rowConds)+len(p.bindings))
	}
	conds := append(p.buf[:0], p.rowConds...)
	for _, b := range p.bindings {
		conds = append(conds, pattern.Eq(b.attr, s.Vals[b.masterIdx]))
	}
	p.buf = conds
	return pattern.Pattern{Conds: conds}
}

// instantiateRows adds one tableau row per master tuple the plan
// verifies, in master scan order. Returns the number of rows verified,
// duplicates of rows already in the tableau included.
func (f *Finder) instantiateRows(reg *Region, p *rowPlan) int {
	if p.none {
		return 0
	}
	added := 0
	// Stored rows are immutable, so they are read in place: a tableau
	// row keeps their values, never the tuple.
	f.eng.Master().Table().ScanShared(func(s *schema.Tuple) bool {
		if !p.verify(s) {
			return true
		}
		n := len(reg.Tableau.Rows)
		if reg.Tableau.AddRow(p.row(s)) {
			added++
		}
		if len(reg.Tableau.Rows) > n {
			p.buf = nil // kept: the tableau holds the slice now
		}
		return true
	})
	return added
}
