package core

import (
	"fmt"

	"cerfix/internal/pattern"
	"cerfix/internal/rule"
	"cerfix/internal/schema"
	"cerfix/internal/value"
)

// The reference for analysis (2): the nested loop over master pairs
// that the equi-join replaced, kept without its pair budget. It tries
// every (s1, s2) in table order, the same-tuple pairs first, and
// reports the first witness per rule pair; the join must report
// exactly the same issues.

// refPairwiseConflicts is checkPairwiseConflicts over the nested loop.
func (e *Engine) refPairwiseConflicts(rep *ConsistencyReport, all []*schema.Tuple) {
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
			e.findConflictWitness(rep, r1, r2, shared, all)
		}
	}
}

// findConflictWitness enumerates master tuple pairs and reports the
// first concrete conflict per shared attribute.
func (e *Engine) findConflictWitness(rep *ConsistencyReport,
	r1, r2 *rule.Rule, shared []sharedTarget, all []*schema.Tuple) {

	// Diagonal pass first: same-tuple witnesses are error-severity and
	// must not be shadowed by an earlier cross-entity warning.
	for _, s := range all {
		if e.tryWitnessPair(rep, r1, r2, shared, s, s) {
			return
		}
	}
	for _, s1 := range all {
		for _, s2 := range all {
			if s1.ID == s2.ID {
				continue
			}
			if e.tryWitnessPair(rep, r1, r2, shared, s1, s2) {
				return // one witness per rule pair keeps reports readable
			}
		}
	}
}

// tryWitnessPair checks whether (s1, s2) witnesses a conflict between
// r1 and r2 on a shared target; if so it records the issue (severity by
// whether the witnesses are the same entity) and returns true.
func (e *Engine) tryWitnessPair(rep *ConsistencyReport, r1, r2 *rule.Rule,
	shared []sharedTarget, s1, s2 *schema.Tuple) bool {

	bindings, ok := e.compatibleBindings(r1, r2, s1, s2)
	if !ok {
		return false
	}
	if !e.patternsHoldUnderBindings(r1.When, r2.When, bindings) {
		return false
	}
	for _, st := range shared {
		v1 := s1.Get(st.bm1)
		v2 := s2.Get(st.bm2)
		if v1 == v2 {
			continue
		}
		sev := SeverityWarning
		note := "only reachable by validating attributes of two different master entities"
		if s1.ID == s2.ID {
			// One entity, two derivations: the rules genuinely
			// contradict each other.
			sev = SeverityError
			note = "both derivations come from the same master tuple"
		}
		rep.Issues = append(rep.Issues, Issue{
			Kind:     IssueRuleConflict,
			Severity: sev,
			RuleA:    r1.ID,
			RuleB:    r2.ID,
			Attr:     st.attr,
			MasterA:  s1.ID,
			MasterB:  s2.ID,
			Detail: fmt.Sprintf("an input matching both rules would get %s=%q from %s but %s=%q from %s (%s)",
				st.attr, string(v1), r1.ID, st.attr, string(v2), r2.ID, note),
		})
		return true
	}
	return false
}

// compatibleBindings merges the input-attribute assignments implied by
// matching s1 via r1 and s2 via r2; fails when they disagree on a
// shared input attribute.
func (e *Engine) compatibleBindings(r1, r2 *rule.Rule, s1, s2 *schema.Tuple) (map[string]value.V, bool) {
	b := make(map[string]value.V)
	add := func(corrs []rule.Correspondence, s *schema.Tuple) bool {
		for _, c := range corrs {
			v := s.Get(c.Master)
			if prev, ok := b[c.Input]; ok && prev != v {
				return false
			}
			b[c.Input] = v
		}
		return true
	}
	if !add(r1.Match, s1) || !add(r2.Match, s2) {
		return nil, false
	}
	return b, true
}

// patternsHoldUnderBindings checks both patterns can hold for some
// input consistent with bindings: conditions on bound attributes are
// evaluated concretely; conditions on free attributes only need joint
// satisfiability.
func (e *Engine) patternsHoldUnderBindings(p1, p2 pattern.Pattern, bindings map[string]value.V) bool {
	var free1, free2 []pattern.Condition
	check := func(p pattern.Pattern, free *[]pattern.Condition) bool {
		for _, c := range p.Conds {
			if v, bound := bindings[c.Attr]; bound {
				if !c.Matches(v, e.input.Domain(c.Attr)) {
					return false
				}
			} else {
				*free = append(*free, c)
			}
		}
		return true
	}
	if !check(p1, &free1) || !check(p2, &free2) {
		return false
	}
	return pattern.JointlySatisfiable(
		pattern.NewPattern(free1...), pattern.NewPattern(free2...), e.input)
}
