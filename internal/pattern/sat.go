package pattern

import (
	"sort"

	"cerfix/internal/schema"
	"cerfix/internal/value"
)

// This file implements the symbolic reasoning used by the rule engine's
// static analysis: joint satisfiability of patterns (needed to decide
// whether two editing rules can apply to the same input tuple) and
// negation-aware cell enumeration for the region finder.
//
// The condition language is interval+membership over totally ordered
// domains, so satisfiability of a conjunction decomposes per attribute:
// a conjunction is satisfiable iff for every attribute the induced
// {interval, must-equal set, must-differ set} admits at least one value.
// We conservatively treat the underlying domains as infinite: a
// constraint set consisting only of inequalities (!=) is always
// satisfiable, and an open interval (lo, hi) is considered non-empty
// whenever lo < hi for float/string domains and when it contains an
// integer for int domains. This errs on the side of "satisfiable",
// which keeps the consistency checker sound (it may report a potential
// conflict that no real tuple triggers, never the reverse).

// attrConstraint accumulates the per-attribute view of a conjunction.
type attrConstraint struct {
	domain value.Domain
	// eq is the forced value if any (OpEq or singleton OpIn chains).
	eq    *value.V
	ne    []value.V // excluded values
	allow []value.V // nil = no IN restriction; else allowed set (intersection of INs)
	// interval bounds; nil = unbounded.
	lo, hi         *value.V
	loOpen, hiOpen bool
}

func newAttrConstraint(d value.Domain) *attrConstraint {
	return &attrConstraint{domain: d}
}

// add narrows the constraint with one condition; returns false when the
// constraint becomes syntactically unsatisfiable right away.
func (a *attrConstraint) add(c Condition) bool {
	switch c.Op {
	case OpAny:
		return true
	case OpEq:
		if a.eq != nil && !value.Equal(*a.eq, c.Const, a.domain) {
			return false
		}
		v := c.Const
		a.eq = &v
		return true
	case OpNe:
		a.ne = append(a.ne, c.Const)
		return true
	case OpIn:
		if a.allow == nil {
			a.allow = append([]value.V(nil), c.Set...)
			return len(a.allow) > 0
		}
		var inter []value.V
		for _, v := range a.allow {
			for _, w := range c.Set {
				if value.Equal(v, w, a.domain) {
					inter = append(inter, v)
					break
				}
			}
		}
		a.allow = inter
		return len(a.allow) > 0
	case OpLt:
		return a.upper(c.Const, true)
	case OpLe:
		return a.upper(c.Const, false)
	case OpGt:
		return a.lower(c.Const, true)
	case OpGe:
		return a.lower(c.Const, false)
	default:
		return false
	}
}

func (a *attrConstraint) upper(v value.V, open bool) bool {
	if a.hi == nil || value.Compare(v, *a.hi, a.domain) < 0 ||
		(value.Compare(v, *a.hi, a.domain) == 0 && open && !a.hiOpen) {
		a.hi = &v
		a.hiOpen = open
	}
	return true
}

func (a *attrConstraint) lower(v value.V, open bool) bool {
	if a.lo == nil || value.Compare(v, *a.lo, a.domain) > 0 ||
		(value.Compare(v, *a.lo, a.domain) == 0 && open && !a.loOpen) {
		a.lo = &v
		a.loOpen = open
	}
	return true
}

// inInterval reports whether v lies within the accumulated bounds.
func (a *attrConstraint) inInterval(v value.V) bool {
	if a.lo != nil {
		c := value.Compare(v, *a.lo, a.domain)
		if c < 0 || (c == 0 && a.loOpen) {
			return false
		}
	}
	if a.hi != nil {
		c := value.Compare(v, *a.hi, a.domain)
		if c > 0 || (c == 0 && a.hiOpen) {
			return false
		}
	}
	return true
}

// excluded reports whether a != condition rules v out.
func (a *attrConstraint) excluded(v value.V) bool {
	for _, n := range a.ne {
		if value.Equal(v, n, a.domain) {
			return true
		}
	}
	return false
}

// admitsForced reports whether v, forced as the attribute's value, meets
// the exclusions, the interval and the IN set.
func (a *attrConstraint) admitsForced(v value.V) bool {
	if a.excluded(v) || !a.inInterval(v) {
		return false
	}
	if a.allow == nil {
		return true
	}
	for _, w := range a.allow {
		if value.Equal(w, v, a.domain) {
			return true
		}
	}
	return false
}

// satisfiable decides whether at least one value meets the accumulated
// constraints, under the infinite-domain convention described above.
func (a *attrConstraint) satisfiable() bool {
	if a.eq != nil {
		return a.admitsForced(*a.eq)
	}
	if a.allow != nil {
		for _, v := range a.allow {
			if !a.excluded(v) && a.inInterval(v) {
				return true
			}
		}
		return false
	}
	// Pure interval + exclusions over an (assumed) infinite domain:
	// an interval with lo < hi, or half-open/unbounded, always has
	// room beyond finitely many exclusions. Only a degenerate point
	// interval can be emptied by an exclusion.
	if a.lo != nil && a.hi != nil {
		c := value.Compare(*a.lo, *a.hi, a.domain)
		if c > 0 {
			return false
		}
		if c == 0 {
			if a.loOpen || a.hiOpen {
				return false
			}
			return !a.excluded(*a.lo)
		}
	}
	return true
}

// PinCheck is one attribute's static conditions folded once, so that
// pinning the attribute to a value is one check instead of a fresh
// satisfiability test: Admits(v) is Satisfiable(conds ∧ attr = v) for
// the conditions it was folded from. The region finder folds a cell's
// conditions on each attribute a tableau row pins to master values.
type PinCheck struct {
	c attrConstraint
	// ok is false when the conditions alone fail while being folded
	// (two different = constants, an empty IN intersection, an
	// unknown operator): no value can pass then.
	ok bool
}

// FoldPin folds conds, which must all constrain attr, under attr's
// domain in sch. Order matters as it does for Satisfiable: under DInt
// and DFloat, value.Equal is not transitive ("NaN" equals every
// number), so a later = constant is checked against the one before it.
func FoldPin(attr string, conds []Condition, sch *schema.Schema) PinCheck {
	p := PinCheck{c: attrConstraint{domain: sch.Domain(attr)}, ok: true}
	for _, c := range conds {
		if !p.c.add(c) {
			p.ok = false
			break
		}
	}
	return p
}

// Admits reports whether the folded conditions stay satisfiable with
// the attribute pinned to v. It neither allocates nor changes p.
func (p *PinCheck) Admits(v value.V) bool {
	if !p.ok {
		return false
	}
	// add(Eq(attr, v)) followed by satisfiable(), without the write.
	if p.c.eq != nil && !value.Equal(*p.c.eq, v, p.c.domain) {
		return false
	}
	return p.c.admitsForced(v)
}

// Satisfiable reports whether some tuple over sch can match p, i.e. the
// conjunction is per-attribute consistent.
func Satisfiable(p Pattern, sch *schema.Schema) bool {
	return conjunctionSatisfiable(p.Conds, sch)
}

// JointlySatisfiable reports whether some tuple over sch can match both
// p and q simultaneously. This is the key primitive of the pairwise
// rule-consistency check: two rules can only conflict on inputs
// matching both their patterns.
func JointlySatisfiable(p, q Pattern, sch *schema.Schema) bool {
	conds := make([]Condition, 0, len(p.Conds)+len(q.Conds))
	conds = append(conds, p.Conds...)
	conds = append(conds, q.Conds...)
	return conjunctionSatisfiable(conds, sch)
}

func conjunctionSatisfiable(conds []Condition, sch *schema.Schema) bool {
	byAttr := make(map[string]*attrConstraint)
	var order []string
	for _, c := range conds {
		a, ok := byAttr[c.Attr]
		if !ok {
			a = newAttrConstraint(sch.Domain(c.Attr))
			byAttr[c.Attr] = a
			order = append(order, c.Attr)
		}
		if !a.add(c) {
			return false
		}
	}
	sort.Strings(order)
	for _, attr := range order {
		if !byAttr[attr].satisfiable() {
			return false
		}
	}
	return true
}

// Negate returns patterns whose disjunction is the complement of p
// (De Morgan over the conjunction: one negated condition per branch).
// Wildcard-only patterns have an empty complement. Used by the region
// finder to enumerate pattern cells with explicit "pattern does not
// hold" branches.
func Negate(p Pattern) []Pattern {
	var out []Pattern
	for _, c := range p.Conds {
		if neg, ok := negateCondition(c); ok {
			out = append(out, NewPattern(neg...))
		}
	}
	return out
}

func negateCondition(c Condition) ([]Condition, bool) {
	switch c.Op {
	case OpAny:
		return nil, false
	case OpEq:
		return []Condition{Ne(c.Attr, c.Const)}, true
	case OpNe:
		return []Condition{Eq(c.Attr, c.Const)}, true
	case OpLt:
		return []Condition{Ge(c.Attr, c.Const)}, true
	case OpLe:
		return []Condition{Gt(c.Attr, c.Const)}, true
	case OpGt:
		return []Condition{Le(c.Attr, c.Const)}, true
	case OpGe:
		return []Condition{Lt(c.Attr, c.Const)}, true
	case OpIn:
		// not-in {a,b} = a conjunction of inequalities.
		conds := make([]Condition, len(c.Set))
		for i, v := range c.Set {
			conds[i] = Ne(c.Attr, v)
		}
		return conds, true
	default:
		return nil, false
	}
}
