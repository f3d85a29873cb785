// Package core implements the paper's primary contribution: finding
// certain fixes for input tuples with editing rules and master data.
//
// It provides:
//
//   - the chase (the fixing procedure the companion paper [7] calls
//     TFix): given a tuple and a set of validated attributes, repeatedly
//     apply editing rules whose premises are validated, copying values
//     from master data and expanding the validated set, until a
//     fixpoint;
//   - the inference system of the rule engine: the symbolic closure
//     that derives which attributes *can* be validated from a seed set,
//     independent of concrete values (used by the region finder and the
//     monitor's suggestion computation);
//   - static analysis of rule sets: the consistency check of §2
//     ("whether the given rules are dirty themselves").
//
// Every change carries provenance (rule, master tuple, round) so the
// auditing module can show "what attributes are fixed and where the
// correct values come from".
package core

import (
	"fmt"

	"cerfix/internal/master"
	"cerfix/internal/rule"
	"cerfix/internal/schema"
	"cerfix/internal/value"
)

// Source tells who changed or validated a cell.
type Source int

const (
	// SourceUser marks a value asserted correct by the user.
	SourceUser Source = iota
	// SourceRule marks a value fixed/validated by an editing rule.
	SourceRule
)

// String names the source for audit display.
func (s Source) String() string {
	switch s {
	case SourceUser:
		return "user"
	case SourceRule:
		return "rule"
	default:
		return fmt.Sprintf("source(%d)", int(s))
	}
}

// Change is one provenance-tracked cell modification or validation.
type Change struct {
	// Attr is the changed input attribute.
	Attr string
	// Old and New are the before/after values; Old == New when the rule
	// merely confirmed (validated) an already-correct value.
	Old, New value.V
	// Source is who made the change.
	Source Source
	// RuleID identifies the editing rule for SourceRule changes.
	RuleID string
	// MasterID is the witness master tuple's row ID for SourceRule
	// changes.
	MasterID int64
	// Round is the chase round (1-based) in which the change happened;
	// 0 for user assertions.
	Round int
}

// IsRewrite reports whether the change altered the stored value (as
// opposed to confirming it).
func (c Change) IsRewrite() bool { return c.Old != c.New }

// ConflictKind classifies chase-time conflicts.
type ConflictKind int

const (
	// MasterAmbiguous: matching master tuples disagree on the source
	// values, so the rule cannot produce a unique fix for this tuple.
	MasterAmbiguous ConflictKind = iota
	// ValidatedContradiction: the rule derives a value different from
	// one already validated — the assertions and rules are jointly
	// inconsistent on this tuple.
	ValidatedContradiction
)

// String names the conflict kind.
func (k ConflictKind) String() string {
	switch k {
	case MasterAmbiguous:
		return "master-ambiguous"
	case ValidatedContradiction:
		return "validated-contradiction"
	default:
		return fmt.Sprintf("conflict(%d)", int(k))
	}
}

// Conflict records a rule application that could not proceed soundly.
type Conflict struct {
	Kind     ConflictKind
	RuleID   string
	Attr     string  // offending attribute (empty for MasterAmbiguous)
	Have     value.V // validated value in the tuple (ValidatedContradiction)
	Want     value.V // value master data derives
	MasterID int64   // witness master tuple where applicable
	Detail   string
}

// Error renders the conflict as a message.
func (c Conflict) Error() string {
	switch c.Kind {
	case MasterAmbiguous:
		return fmt.Sprintf("rule %s: master data ambiguous (%s)", c.RuleID, c.Detail)
	case ValidatedContradiction:
		return fmt.Sprintf("rule %s: derived %s=%q contradicts validated value %q",
			c.RuleID, c.Attr, string(c.Want), string(c.Have))
	default:
		return fmt.Sprintf("rule %s: conflict", c.RuleID)
	}
}

// Engine binds an input schema, a rule set and a master store.
type Engine struct {
	input *schema.Schema
	rules *rule.Set
	store *master.Store
	// prog is the compiled chase program: the rule set resolved once
	// into index form (see compile.go). Compiled in NewEngine and
	// shared by snapshots — it depends only on the schema and the
	// immutable-after-publish rule set, never on master data.
	prog *chaseProgram
}

// NewEngine validates the rule set against both schemas, builds master
// indexes for every rule, compiles the chase program, and returns the
// engine.
//
// The engine treats the rule set as immutable after publication: to
// change rules, build a new set (rule.Set.Clone + Add/Remove) and a
// new engine around it, as cerfix.System does. This discipline is
// what lets Snapshot share the set — and the compiled program —
// instead of recomputing them.
func NewEngine(input *schema.Schema, rules *rule.Set, store *master.Store) (*Engine, error) {
	if err := rules.Validate(input, store.Schema()); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := store.PrepareForRules(rules); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Engine{
		input: input,
		rules: rules,
		store: store,
		prog:  compileProgram(input, rules.Rules()),
	}, nil
}

// Snapshot returns a frozen O(1) view of the engine that any number
// of goroutines may chase against while the live engine's master data
// keeps changing — the view the batch pipeline and concurrent job
// runners fix over. The master store is captured atomically under its
// own lock (see master.Store.Snapshot) and the rule set is shared
// under the immutable-after-publish discipline, so the call needs no
// external serialization and its cost is independent of master size.
func (e *Engine) Snapshot() *Engine {
	return &Engine{input: e.input, rules: e.rules, store: e.store.Snapshot(), prog: e.prog}
}

// InputSchema returns the input relation's schema.
func (e *Engine) InputSchema() *schema.Schema { return e.input }

// Rules returns the engine's rule set.
func (e *Engine) Rules() *rule.Set { return e.rules }

// Master returns the engine's master store.
func (e *Engine) Master() *master.Store { return e.store }

// ChaseResult is the outcome of one chase run.
type ChaseResult struct {
	// Tuple is the fixed copy of the input (the original is untouched).
	Tuple *schema.Tuple
	// Validated is the final validated attribute set.
	Validated schema.AttrSet
	// Changes lists rule-made modifications and confirmations in
	// application order.
	Changes []Change
	// Conflicts lists soundness violations encountered; a non-empty
	// list means the fix is not certain.
	Conflicts []Conflict
	// Rounds is the number of fixpoint iterations performed.
	Rounds int
	// Stats reports the compiled chase's agenda work for this run.
	// ChaseLegacy leaves it zero; it carries no fixing semantics, so the
	// compiled/legacy parity contract does not cover it.
	Stats ChaseStats
}

// ChaseStats counts the agenda's work in one chase: RulesEvaluated
// premise-ready rules were evaluated; RulesSkipped premise-ready rules
// never reached the agenda because their pattern is unsatisfiable over
// the input schema (decided once, when the rule set compiles).
type ChaseStats struct {
	RulesSkipped   int
	RulesEvaluated int
}

// AllValidated reports whether every attribute ended validated.
func (r *ChaseResult) AllValidated() bool {
	return r.Validated == schema.FullSet(r.Tuple.Schema)
}

// Clone returns a deep copy safe to retain indefinitely: the tuple,
// change list and conflict list share nothing with r. Zero-length
// slices normalize to nil — the shape a fresh sequential chase
// produces — so a clone of a buffer-reusing result (Chaser.ChaseInto
// truncates rather than nils its slices) compares and serializes
// identically to the sequential path's output.
func (r *ChaseResult) Clone() *ChaseResult {
	cp := &ChaseResult{Tuple: r.Tuple.Clone(), Validated: r.Validated, Rounds: r.Rounds, Stats: r.Stats}
	if len(r.Changes) > 0 {
		cp.Changes = append([]Change(nil), r.Changes...)
	}
	if len(r.Conflicts) > 0 {
		cp.Conflicts = append([]Conflict(nil), r.Conflicts...)
	}
	return cp
}

// Rewrites returns only the changes that altered values.
func (r *ChaseResult) Rewrites() []Change {
	var out []Change
	for _, c := range r.Changes {
		if c.IsRewrite() {
			out = append(out, c)
		}
	}
	return out
}

// RewriteCount is len(Rewrites()) without materializing the slice —
// the counter the pipeline's per-tuple hot paths (stats, sink
// records) share so the rewrite definition lives in one place.
func (r *ChaseResult) RewriteCount() int {
	n := 0
	for i := range r.Changes {
		if r.Changes[i].IsRewrite() {
			n++
		}
	}
	return n
}

// Chase runs the fixing procedure on a copy of t, starting from the
// validated attribute set. Semantics per rule, in rule-set order:
//
//  1. the premise X ∪ Xp must be validated;
//  2. the pattern tp must match the current tuple;
//  3. the master lookup on Xm = t[X] must return a unique RHS — no
//     match skips silently, disagreement records a MasterAmbiguous
//     conflict (once per rule);
//  4. each target B: if unvalidated, write s[Bm] (a Change; Old==New
//     when confirming) and validate it; if already validated and equal,
//     nothing; if validated and different, record a
//     ValidatedContradiction and leave the value alone.
//
// Rounds repeat until no rule validates a new attribute or changes a
// value. Because each productive application validates at least one
// previously-unvalidated attribute, the chase terminates within
// |attrs| + 1 rounds.
//
// Chase executes the engine's compiled program with agenda scheduling
// (see compile.go); results are byte-identical to the legacy
// round-robin loop, which ChaseLegacy retains as the parity oracle
// and benchmark baseline. The chaser comes from the engine's pool
// (AcquireChaser), so interactive one-off fixes reuse the scratch a
// previous call — or a finished batch run on any snapshot of this
// engine — already warmed, instead of paying the compile-scratch
// setup per call.
func (e *Engine) Chase(t *schema.Tuple, validated schema.AttrSet) *ChaseResult {
	c := e.AcquireChaser()
	res := c.Chase(t, validated)
	c.Release()
	return res
}

// ChaseLegacy is the original chase executor: every round rescans the
// entire rule set in order, re-resolving attribute names, premise and
// target sets and projection keys per application. Retained as the
// oracle of the compiled/legacy parity suite — it is the reference
// semantics the compiled path must reproduce byte for byte.
func (e *Engine) ChaseLegacy(t *schema.Tuple, validated schema.AttrSet) *ChaseResult {
	res := &ChaseResult{Tuple: t.Clone(), Validated: validated}
	rules := e.rules.Rules()
	reportedAmbiguous := make(map[string]bool)
	reportedContradiction := make(map[string]bool)
	for round := 1; ; round++ {
		progressed := false
		for _, r := range rules {
			if e.applyRule(r, res, round, reportedAmbiguous, reportedContradiction) {
				progressed = true
			}
		}
		res.Rounds = round
		if !progressed {
			return res
		}
	}
}

// applyRule attempts one rule application (the legacy executor's
// inner step), returning whether it made progress (validated a new
// attribute or rewrote a value). One master lookup serves fixing, the
// contradiction sweep over already-validated targets, and ambiguity
// detection.
func (e *Engine) applyRule(r *rule.Rule, res *ChaseResult, round int,
	reportedAmbiguous, reportedContradiction map[string]bool) bool {

	premise := r.PremiseAttrs(e.input)
	if !res.Validated.ContainsAll(premise) {
		return false
	}
	if !r.When.Matches(res.Tuple) {
		return false
	}
	rhs, witness, status := e.store.UniqueRHSForRule(r, res.Tuple)
	switch status {
	case master.NoMatch:
		return false
	case master.Conflict:
		// With every target already validated the rule has nothing
		// left to fix and the ambiguity is moot: skip silently.
		if res.Validated.ContainsAll(r.TargetAttrs(e.input)) {
			return false
		}
		if !reportedAmbiguous[r.ID] {
			reportedAmbiguous[r.ID] = true
			res.Conflicts = append(res.Conflicts, Conflict{
				Kind:   MasterAmbiguous,
				RuleID: r.ID,
				Detail: fmt.Sprintf("key %v on %v", res.Tuple.Project(r.MatchInputAttrs()).Strings(), r.MatchMasterAttrs()),
			})
		}
		return false
	}
	progressed := false
	for i, corr := range r.Set {
		b := corr.Input
		bi := e.input.MustIndex(b)
		want := rhs[i]
		have := res.Tuple.At(bi)
		if res.Validated.Has(bi) {
			if have != want {
				key := r.ID + "\x00" + b
				if !reportedContradiction[key] {
					reportedContradiction[key] = true
					res.Conflicts = append(res.Conflicts, Conflict{
						Kind:     ValidatedContradiction,
						RuleID:   r.ID,
						Attr:     b,
						Have:     have,
						Want:     want,
						MasterID: witness,
					})
				}
			}
			continue
		}
		res.Tuple.Vals[bi] = want
		res.Validated = res.Validated.With(bi)
		res.Changes = append(res.Changes, Change{
			Attr:     b,
			Old:      have,
			New:      want,
			Source:   SourceRule,
			RuleID:   r.ID,
			MasterID: witness,
			Round:    round,
		})
		progressed = true
	}
	return progressed
}
