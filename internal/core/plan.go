package core

import (
	"fmt"
	"strings"

	"cerfix/internal/schema"
)

// This file implements derivation plans: the explanation facility
// behind "where the correct values come from" (paper §3, data
// auditing) applied *prospectively*. Given a validated seed set, a plan
// lists the rule applications, in firing order, that the closure
// computation relies on — what the UI shows a user who asks "why is it
// enough to validate these attributes?".

// PlanStep is one rule application in a derivation plan.
type PlanStep struct {
	// RuleID is the editing rule that fires.
	RuleID string
	// Needs lists the premise attributes (X ∪ Xp), sorted.
	Needs []string
	// Gives lists the attributes the step validates (targets not
	// already validated), sorted.
	Gives []string
}

// String renders "phi1: {zip} => {AC}".
func (s PlanStep) String() string {
	return fmt.Sprintf("%s: {%s} => {%s}",
		s.RuleID, strings.Join(s.Needs, ", "), strings.Join(s.Gives, ", "))
}

// Plan computes the derivation plan from seed under the admitted
// rules: the sequence of productive rule applications the closure
// performs, plus whether the plan reaches goal. Rules are considered
// in set order per round (the chase's order), so the plan mirrors what
// the engine will actually do; steps that validate nothing new are
// omitted.
func (d *Derivation) Plan(seed, goal schema.AttrSet) ([]PlanStep, bool) {
	var steps []PlanStep
	cur := d.fixpoint(seed, func(r *derivationRule, gives schema.AttrSet) {
		steps = append(steps, PlanStep{
			RuleID: r.id,
			Needs:  r.premise.SortedNames(d.input),
			Gives:  gives.SortedNames(d.input),
		})
	})
	return steps, cur.ContainsAll(goal)
}

// ExplainSuggestion renders why validating the suggested attributes
// completes a tuple: the suggestion itself plus the plan that follows.
// Used by the CLI's regions/monitor views.
func (d *Derivation) ExplainSuggestion(validated, suggestion schema.AttrSet) string {
	var b strings.Builder
	fmt.Fprintf(&b, "validate %s", suggestion.Format(d.input))
	steps, complete := d.Plan(validated.Union(suggestion), schema.FullSet(d.input))
	for _, s := range steps {
		fmt.Fprintf(&b, "\n  then %s", s)
	}
	if !complete {
		b.WriteString("\n  (does not complete the tuple)")
	}
	return b.String()
}
