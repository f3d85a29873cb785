// Package monitor implements CerFix's data monitor — "the most
// important module" (paper §2) — which inspects and repairs tuples at
// the point of data entry through interaction rounds:
//
//  1. Initial suggestion: the pre-computed certain regions (region
//     finder) are recommended; validating a covering region's
//     attributes warrants a certain fix in one shot.
//  2. Data repairing: the user validates any set of attributes (the
//     suggested ones or their own choice, possibly correcting values);
//     the monitor chases editing rules + master data to fix as many
//     attributes as possible and expands the validated set.
//  3. New suggestion: if attributes remain unvalidated, the monitor
//     computes a minimal set of additional attributes to validate and
//     loops back to 2.
//
// Every user validation and rule fix is recorded in the audit log.
package monitor

import (
	"fmt"
	"sort"

	"cerfix/internal/audit"
	"cerfix/internal/core"
	"cerfix/internal/region"
	"cerfix/internal/rule"
	"cerfix/internal/schema"
	"cerfix/internal/value"
)

// Monitor drives fixing sessions against one engine configuration.
type Monitor struct {
	eng     *core.Engine
	regions []*region.Region
	log     *audit.Log
	greedy  bool
}

// Options configures monitor construction.
type Options struct {
	// Regions supplies pre-computed certain regions; nil computes them
	// with default finder options (the paper pre-computes regions to
	// cut suggestion latency).
	Regions []*region.Region
	// RegionK bounds region computation when Regions is nil.
	RegionK int
	// Log supplies a shared audit log, which also allocates session
	// IDs; nil creates a fresh one.
	Log *audit.Log
	// GreedySuggestions switches new-suggestion computation from the
	// exact minimal extension (exponential worst case, default) to the
	// polynomial greedy cover — the wide-schema configuration. Greedy
	// suggestions may be larger than minimal but always complete the
	// tuple.
	GreedySuggestions bool
}

// New builds a monitor for the engine.
func New(eng *core.Engine, opts *Options) *Monitor {
	m := &Monitor{eng: eng}
	if opts != nil {
		m.greedy = opts.GreedySuggestions
	}
	if opts != nil && opts.Log != nil {
		m.log = opts.Log
	} else {
		m.log = audit.NewLog()
	}
	if opts != nil && opts.Regions != nil {
		m.regions = opts.Regions
	} else {
		k := 0
		if opts != nil {
			k = opts.RegionK
		}
		m.regions = region.NewFinder(eng).TopK(&region.Options{K: k})
	}
	return m
}

// Engine returns the underlying engine.
func (m *Monitor) Engine() *core.Engine { return m.eng }

// Regions returns the pre-computed certain regions (ascending |Z|).
func (m *Monitor) Regions() []*region.Region { return m.regions }

// Log returns the audit log shared by all sessions.
func (m *Monitor) Log() *audit.Log { return m.log }

// Session is one tuple's interactive fixing session.
type Session struct {
	m *Monitor
	// ID identifies the session (and the tuple in the audit log). The
	// log allocates it, so it never repeats among the sessions of
	// monitors that share a log.
	ID int64
	// Original is the tuple as entered.
	Original *schema.Tuple
	// Tuple is the current (partially fixed) state.
	Tuple *schema.Tuple
	// Validated is the current validated attribute set.
	Validated schema.AttrSet
	// Rounds counts user interaction rounds so far.
	Rounds int
	// Conflicts accumulates chase conflicts (non-certain states).
	Conflicts []core.Conflict
}

// NewSession opens a session for tuple t (copied).
func (m *Monitor) NewSession(t *schema.Tuple) (*Session, error) {
	if t.Schema.Len() != m.eng.InputSchema().Len() || t.Schema.Name() != m.eng.InputSchema().Name() {
		return nil, fmt.Errorf("monitor: tuple schema %s does not match input schema %s",
			t.Schema.Name(), m.eng.InputSchema().Name())
	}
	return &Session{
		m:        m,
		ID:       m.log.NewTupleID(),
		Original: t.Clone(),
		Tuple:    t.Clone(),
	}, nil
}

// Done reports whether every attribute is validated.
func (s *Session) Done() bool {
	return s.Validated == schema.FullSet(s.Tuple.Schema)
}

// Remaining returns the attributes still unvalidated (sorted).
func (s *Session) Remaining() []string {
	return schema.FullSet(s.Tuple.Schema).Minus(s.Validated).SortedNames(s.Tuple.Schema)
}

// Suggestion returns the attributes CerFix currently recommends the
// user validate (sorted). Before any validation this is the initial
// suggestion — the smallest pre-computed certain region's Z (step 1);
// afterwards it is the minimal extension of the validated set
// (step 3). An empty slice means the session is done.
func (s *Session) Suggestion() []string {
	if s.Done() {
		return nil
	}
	if s.Validated.IsEmpty() && len(s.m.regions) > 0 {
		// Initial suggestion: prefer a region whose tableau covers the
		// entered values (likeliest one-shot); fall back to the
		// smallest region.
		for _, reg := range s.m.regions {
			if reg.Covers(s.Tuple) {
				return reg.AttrNames()
			}
		}
		return s.m.regions[0].AttrNames()
	}
	delta := s.suggestionSet()
	names := delta.SortedNames(s.Tuple.Schema)
	sort.Strings(names)
	return names
}

// suggestionSet computes the next validation set (exact or greedy per
// the monitor's configuration).
func (s *Session) suggestionSet() schema.AttrSet {
	d := s.derivation()
	goal := schema.FullSet(s.Tuple.Schema)
	if s.m.greedy {
		return d.GreedyExtension(s.Validated, goal)
	}
	return d.MinimalExtension(s.Validated, goal)
}

// ExplainSuggestion renders why the current suggestion completes the
// tuple: the attributes to validate plus the derivation plan the rules
// will follow — the prospective counterpart of the auditing module's
// "where the correct values come from".
func (s *Session) ExplainSuggestion() string {
	if s.Done() {
		return "all attributes validated"
	}
	sug := schema.SetOfNames(s.Tuple.Schema, s.Suggestion()...)
	return s.derivation().ExplainSuggestion(s.Validated, sug)
}

// derivation resolves the rules whose pattern matches the session's
// current tuple values: the concrete analogue of the region finder's
// pattern cells.
func (s *Session) derivation() *core.Derivation {
	return s.m.eng.Derivation(func(r *rule.Rule) bool {
		return r.When.Matches(s.Tuple)
	})
}

// Validate is step 2: the user asserts correct values for the given
// attributes (any attributes — the suggestion is not binding). The
// asserted values overwrite the tuple's cells, the attributes join the
// validated set, and the monitor chases rules + master data, expanding
// the validated set further. It returns the chase result of this
// round.
func (s *Session) Validate(assertions map[string]string) (*core.ChaseResult, error) {
	if len(assertions) == 0 {
		return nil, fmt.Errorf("monitor: empty validation")
	}
	input := s.m.eng.InputSchema()
	// Apply user assertions.
	names := make([]string, 0, len(assertions))
	for a := range assertions {
		if !input.Has(a) {
			return nil, fmt.Errorf("monitor: unknown attribute %q", a)
		}
		names = append(names, a)
	}
	sort.Strings(names)
	for _, a := range names {
		v := value.V(assertions[a])
		old := s.Tuple.Get(a)
		s.Tuple.Set(a, v)
		s.Validated = s.Validated.With(input.MustIndex(a))
		s.m.log.RecordUser(s.ID, a, old, v)
	}
	s.Rounds++
	return s.chase(), nil
}

// ValidateSuggested validates the current suggestion using the tuple's
// current values (the "users opt to validate these attributes" path of
// the demo walkthrough, where the entered values are asserted as-is).
func (s *Session) ValidateSuggested() (*core.ChaseResult, error) {
	sug := s.Suggestion()
	if len(sug) == 0 {
		return nil, fmt.Errorf("monitor: nothing to validate")
	}
	m := make(map[string]string, len(sug))
	for _, a := range sug {
		m[a] = string(s.Tuple.Get(a))
	}
	return s.Validate(m)
}

// chase runs the engine and folds the outcome into the session.
func (s *Session) chase() *core.ChaseResult {
	res := s.m.eng.Chase(s.Tuple, s.Validated)
	s.Tuple = res.Tuple
	s.Validated = res.Validated
	s.Conflicts = append(s.Conflicts, res.Conflicts...)
	s.m.log.RecordChanges(s.ID, res.Changes)
	return res
}

// Certain reports whether the session finished with a certain fix:
// all attributes validated and no conflicts encountered.
func (s *Session) Certain() bool {
	return s.Done() && len(s.Conflicts) == 0
}

// Summary condenses a finished (or in-flight) session.
type Summary struct {
	// ID is the session/tuple ID.
	ID int64
	// Rounds is the number of user interaction rounds.
	Rounds int
	// UserValidated counts attributes asserted by the user.
	UserValidated int
	// AutoValidated counts attributes validated by rules.
	AutoValidated int
	// Rewritten counts cells whose value a rule changed.
	Rewritten int
	// Done and Certain mirror the session predicates.
	Done, Certain bool
	// ChangedAttrs lists attributes whose final value differs from the
	// entered value (user corrections and rule fixes), sorted.
	ChangedAttrs []string
}

// Summary computes the session summary from the audit log.
func (s *Session) Summary() Summary {
	sum := Summary{ID: s.ID, Rounds: s.Rounds, Done: s.Done(), Certain: s.Certain()}
	seen := make(map[string]core.Source)
	for _, rec := range s.m.log.TupleHistory(s.ID) {
		if _, dup := seen[rec.Attr]; !dup {
			seen[rec.Attr] = rec.Source
			if rec.Source == core.SourceUser {
				sum.UserValidated++
			} else {
				sum.AutoValidated++
			}
		}
		if rec.Source == core.SourceRule && rec.IsRewrite() {
			sum.Rewritten++
		}
	}
	sum.ChangedAttrs = s.Original.DiffAttrs(s.Tuple)
	return sum
}
