// Package cfd implements conditional functional dependencies (CFDs),
// the constraint class the paper contrasts editing rules against
// (Example 1: ψ1: AC = 020 → city = Ldn, ψ2: AC = 131 → city = Edi).
//
// The package provides:
//
//   - the CFD model (embedded pattern tableau with constants and
//     wildcards) and a one-line DSL;
//   - violation detection over tuples and relations — CFDs "detect the
//     presence of errors" but cannot localize them;
//   - a heuristic cost-based repair in the style the paper's related
//     work uses (value modification minimizing edit-distance cost,
//     cf. Bohannon et al., SIGMOD 2005). This is the E4 baseline: it
//     resolves each violation by rewriting right-hand-side values,
//     which can overwrite correct data — exactly the Example 1 failure
//     mode certain fixes avoid;
//   - derivation of editing rules from CFDs (paper §2: rules can be
//     "derived from integrity constraints, e.g., cfds and matching
//     dependencies ... for which discovery algorithms are already in
//     place").
package cfd

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

// Atom is one side element of a CFD embedding: an attribute with
// either a constant (Const != nil) or a wildcard.
type Atom struct {
	// Attr is the attribute name.
	Attr string
	// Const is the pattern constant; nil means wildcard ("_").
	Const *value.V
}

// IsConst reports whether the atom carries a constant.
func (a Atom) IsConst() bool { return a.Const != nil }

// String renders `attr = "c"` or `attr`.
func (a Atom) String() string {
	if a.IsConst() {
		return fmt.Sprintf("%s = %q", a.Attr, string(*a.Const))
	}
	return a.Attr
}

// ConstAtom builds a constant atom.
func ConstAtom(attr string, c value.V) Atom { return Atom{Attr: attr, Const: &c} }

// VarAtom builds a wildcard atom.
func VarAtom(attr string) Atom { return Atom{Attr: attr} }

// CFD is one conditional functional dependency (X → Y, tp) with a
// single pattern row (a multi-row tableau is expressed as several CFDs
// sharing the embedded FD, which is how discovery tools emit them).
type CFD struct {
	// ID names the dependency (e.g. "psi1").
	ID string
	// LHS is the X side with its pattern constants.
	LHS []Atom
	// RHS is the Y side with its pattern constants.
	RHS []Atom
}

// IsConstant reports whether every RHS atom carries a constant — a
// "constant CFD" that pins exact values (like ψ1/ψ2 of Example 1).
func (c *CFD) IsConstant() bool {
	for _, a := range c.RHS {
		if !a.IsConst() {
			return false
		}
	}
	return len(c.RHS) > 0
}

// LHSAttrs returns the X attribute names in order.
func (c *CFD) LHSAttrs() []string {
	out := make([]string, len(c.LHS))
	for i, a := range c.LHS {
		out[i] = a.Attr
	}
	return out
}

// RHSAttrs returns the Y attribute names in order.
func (c *CFD) RHSAttrs() []string {
	out := make([]string, len(c.RHS))
	for i, a := range c.RHS {
		out[i] = a.Attr
	}
	return out
}

// Validate checks attribute existence and shape.
func (c *CFD) Validate(sch *schema.Schema) error {
	if c.ID == "" {
		return fmt.Errorf("cfd: empty id")
	}
	if len(c.LHS) == 0 || len(c.RHS) == 0 {
		return fmt.Errorf("cfd %s: empty side", c.ID)
	}
	seen := map[string]bool{}
	for _, a := range append(append([]Atom{}, c.LHS...), c.RHS...) {
		if !sch.Has(a.Attr) {
			return fmt.Errorf("cfd %s: attribute %q not in schema %s", c.ID, a.Attr, sch.Name())
		}
	}
	for _, a := range c.RHS {
		if seen[a.Attr] {
			return fmt.Errorf("cfd %s: duplicate RHS attribute %q", c.ID, a.Attr)
		}
		seen[a.Attr] = true
		for _, l := range c.LHS {
			if l.Attr == a.Attr {
				return fmt.Errorf("cfd %s: attribute %q on both sides", c.ID, a.Attr)
			}
		}
	}
	return nil
}

// lhsMatches reports whether t satisfies the LHS pattern constants.
func (c *CFD) lhsMatches(t *schema.Tuple) bool {
	for _, a := range c.LHS {
		if a.IsConst() && t.Get(a.Attr) != *a.Const {
			return false
		}
	}
	return true
}

// String renders the CFD in DSL syntax.
func (c *CFD) String() string {
	l := make([]string, len(c.LHS))
	for i, a := range c.LHS {
		l[i] = a.String()
	}
	r := make([]string, len(c.RHS))
	for i, a := range c.RHS {
		r[i] = a.String()
	}
	return fmt.Sprintf("%s: %s -> %s", c.ID, strings.Join(l, ", "), strings.Join(r, ", "))
}

// Violation records one detected inconsistency.
type Violation struct {
	// CFDID names the violated dependency.
	CFDID string
	// Attr is the RHS attribute in disagreement.
	Attr string
	// TupleA is always set; TupleB is set for variable-CFD pair
	// violations (two tuples agreeing on X but differing on Y).
	TupleA, TupleB int64
	// Want is the expected value (pattern constant, or TupleA's value
	// for pair violations).
	Want value.V
	// Got is the offending value.
	Got value.V
}

// String renders the violation.
func (v Violation) String() string {
	if v.TupleB != 0 {
		return fmt.Sprintf("%s: tuples %d and %d agree on LHS but %s differs (%q vs %q)",
			v.CFDID, v.TupleA, v.TupleB, v.Attr, string(v.Want), string(v.Got))
	}
	return fmt.Sprintf("%s: tuple %d has %s=%q, pattern requires %q",
		v.CFDID, v.TupleA, v.Attr, string(v.Got), string(v.Want))
}

// CheckTuple returns the constant-CFD violations of a single tuple —
// the detection power Example 1 grants integrity constraints: presence
// of errors, not their location.
func CheckTuple(cfds []*CFD, t *schema.Tuple) []Violation {
	var out []Violation
	for _, c := range cfds {
		if !c.IsConstant() || !c.lhsMatches(t) {
			continue
		}
		for _, a := range c.RHS {
			if got := t.Get(a.Attr); got != *a.Const {
				out = append(out, Violation{
					CFDID: c.ID, Attr: a.Attr, TupleA: t.ID,
					Want: *a.Const, Got: got,
				})
			}
		}
	}
	return out
}

// CheckTable returns all violations over a table's rows: constant-CFD
// row violations plus variable-CFD pair violations (first witness pair
// per (cfd, group, attr)).
func CheckTable(cfds []*CFD, rows []*schema.Tuple) []Violation {
	var out []Violation
	for _, c := range cfds {
		if c.IsConstant() {
			for _, t := range rows {
				out = append(out, CheckTuple([]*CFD{c}, t)...)
			}
			continue
		}
		// Variable CFD: group matching tuples by X projection.
		groups := make(map[string]*schema.Tuple)
		flagged := make(map[string]bool)
		lhs := c.LHSAttrs()
		for _, t := range rows {
			if !c.lhsMatches(t) {
				continue
			}
			key := t.Project(lhs).Key()
			first, ok := groups[key]
			if !ok {
				groups[key] = t
				continue
			}
			for _, a := range c.RHS {
				if a.IsConst() {
					continue
				}
				fkey := key + "\x00" + a.Attr
				if flagged[fkey] {
					continue
				}
				if first.Get(a.Attr) != t.Get(a.Attr) {
					flagged[fkey] = true
					out = append(out, Violation{
						CFDID: c.ID, Attr: a.Attr,
						TupleA: first.ID, TupleB: t.ID,
						Want: first.Get(a.Attr), Got: t.Get(a.Attr),
					})
				}
			}
		}
	}
	return out
}

// DeriveRules converts CFDs into editing rules against a master
// relation under the same schema (paper §2). A CFD (X → A, tp) yields
// the eR "match X~X set A := A when <LHS constants>": when the input
// agrees with a master tuple on X (and X is validated), A is copied
// from master. RHS pattern constants are dropped — consistent master
// data already satisfies them — and recorded in the rule comment.
func DeriveRules(cfds []*CFD, sch *schema.Schema) ([]*rule.Rule, error) {
	var out []*rule.Rule
	for _, c := range cfds {
		if err := c.Validate(sch); err != nil {
			return nil, err
		}
		var conds []pattern.Condition
		var match []rule.Correspondence
		for _, a := range c.LHS {
			match = append(match, rule.Correspondence{Input: a.Attr, Master: a.Attr})
			if a.IsConst() {
				conds = append(conds, pattern.Eq(a.Attr, *a.Const))
			}
		}
		var set []rule.Correspondence
		comment := fmt.Sprintf("derived from cfd %s", c.ID)
		for _, a := range c.RHS {
			set = append(set, rule.Correspondence{Input: a.Attr, Master: a.Attr})
			if a.IsConst() {
				comment += fmt.Sprintf("; expects %s=%q", a.Attr, string(*a.Const))
			}
		}
		r := &rule.Rule{
			ID:      "er_" + c.ID,
			Match:   match,
			Set:     set,
			When:    pattern.NewPattern(conds...),
			Comment: comment,
		}
		out = append(out, r)
	}
	return out, nil
}

// Repairer is the heuristic cost-based repair baseline. It resolves
// violations by modifying right-hand-side values: constant CFDs force
// the pattern constant; variable CFDs align each X-group on the
// group's plurality value (ties by lower total edit-distance cost).
// It neither consults master data nor users — and therefore cannot
// tell which side of a violation is wrong.
type Repairer struct {
	cfds []*CFD
	// MaxPasses bounds the fixpoint iterations (default 5).
	MaxPasses int
}

// NewRepairer builds a baseline repairer.
func NewRepairer(cfds []*CFD) *Repairer {
	return &Repairer{cfds: cfds, MaxPasses: 5}
}

// RepairStats summarizes one repair run.
type RepairStats struct {
	// CellsChanged counts modified cells.
	CellsChanged int
	// Passes is the number of fixpoint passes run.
	Passes int
	// Remaining counts violations left after the final pass.
	Remaining int
}

// RepairTuple applies constant-CFD repairs to a single tuple (the
// point-of-entry analogue of the baseline): every violated constant
// pattern overwrites the RHS cell. Returns the repaired copy and the
// number of changed cells.
func (r *Repairer) RepairTuple(t *schema.Tuple) (*schema.Tuple, int) {
	out := t.Clone()
	changed := 0
	for pass := 0; pass < r.maxPasses(); pass++ {
		n := r.repairConstantsOnce(out)
		if n == 0 {
			break
		}
		changed += n
	}
	return out, changed
}

func (r *Repairer) maxPasses() int {
	if r.MaxPasses > 0 {
		return r.MaxPasses
	}
	return 5
}

// RepairTable repairs a table's rows in place: constant CFDs
// overwrite RHS cells; variable CFDs align each group on its plurality
// value.
func (r *Repairer) RepairTable(rows []*schema.Tuple) RepairStats {
	stats := RepairStats{}
	for pass := 1; pass <= r.maxPasses(); pass++ {
		stats.Passes = pass
		changed := 0
		// Constant CFDs.
		for _, t := range rows {
			changed += r.repairConstantsOnce(t)
		}
		// Variable CFDs: plurality alignment per group.
		for _, c := range r.cfds {
			if c.IsConstant() {
				continue
			}
			changed += r.alignGroups(c, rows)
		}
		stats.CellsChanged += changed
		if changed == 0 {
			break
		}
	}
	stats.Remaining = len(CheckTable(r.cfds, rows))
	return stats
}

// repairConstantsOnce overwrites, in place, every cell of t that
// violates a constant pattern, and returns how many it changed.
func (r *Repairer) repairConstantsOnce(t *schema.Tuple) int {
	vs := CheckTuple(r.cfds, t)
	for _, v := range vs {
		t.Set(v.Attr, v.Want)
	}
	return len(vs)
}

// alignGroups makes every X-group agree on each variable RHS attribute
// by rewriting minority values to the plurality value (cost-based tie
// break: the value minimizing total edit distance wins).
func (r *Repairer) alignGroups(c *CFD, rows []*schema.Tuple) int {
	lhs := c.LHSAttrs()
	groups := make(map[string][]*schema.Tuple)
	var keys []string
	for _, t := range rows {
		if !c.lhsMatches(t) {
			continue
		}
		k := t.Project(lhs).Key()
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], t)
	}
	sort.Strings(keys)
	changed := 0
	for _, k := range keys {
		group := groups[k]
		if len(group) < 2 {
			continue
		}
		for _, a := range c.RHS {
			if a.IsConst() {
				continue
			}
			target := pluralityValue(group, a.Attr)
			for _, t := range group {
				if t.Get(a.Attr) != target {
					t.Set(a.Attr, target)
					changed++
				}
			}
		}
	}
	return changed
}

// pluralityValue picks the most frequent value of attr in the group;
// ties are broken by the value with the smallest total edit distance
// to the others (then lexicographically, for determinism).
func pluralityValue(group []*schema.Tuple, attr string) value.V {
	counts := make(map[value.V]int)
	for _, t := range group {
		counts[t.Get(attr)]++
	}
	var best value.V
	bestCount, bestCost := -1, 0
	var cands []value.V
	for v := range counts {
		cands = append(cands, v)
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	for _, v := range cands {
		cost := 0
		for w, n := range counts {
			cost += n * textutil.Levenshtein(string(v), string(w))
		}
		if counts[v] > bestCount || (counts[v] == bestCount && cost < bestCost) {
			best, bestCount, bestCost = v, counts[v], cost
		}
	}
	return best
}
