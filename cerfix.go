// Package cerfix is the public API of the CerFix reproduction: a data
// cleaning system that finds certain fixes — fixes guaranteed correct —
// for tuples at the point of data entry, based on master data, editing
// rules and certain regions (Fan, Li, Ma, Tang, Yu: "CerFix: A System
// for Cleaning Data with Certain Fixes", PVLDB 4(12), 2011).
//
// A System bundles the demo architecture of the paper's Fig. 1: the
// rule engine (editing rules + static analyses), the master data
// manager, the region finder, the data monitor and the data auditing
// module. Typical use:
//
//	sys, _ := cerfix.New(inputSchema, masterSchema, rulesDSL)
//	sys.AddMasterRow("Robert", "Brady", "131", ...)
//	report := sys.CheckConsistency()          // rule engine analysis
//	regions := sys.Regions(5)                 // top-5 certain regions
//	sess, _ := sys.NewSession(map[string]string{...})
//	fmt.Println(sess.Suggestion())            // attributes to validate
//	sess.Validate(map[string]string{"zip": "EH8 4AH"})
//	// ... loop until sess.Done(); audit via sys.Audit().
//
// # Batch repair at scale
//
// Interactive sessions fix one tuple at a time; bulk integrations
// (the POST /api/v1/fix endpoint, `cerfix fix -workers N`) instead run
// non-interactive certain-fix passes through internal/pipeline, a
// streaming sharded executor. Because rules and master data are
// frozen for the duration of a batch, every tuple's chase is
// independent, so the pipeline shards tuples across a worker pool —
// each worker reusing its own chase state against a shared read-only
// engine snapshot (SnapshotEngine) — and re-sequences results so
// output is byte-identical to the sequential path. Bounded channels
// and an in-flight window keep memory flat regardless of input size.
// Snapshots are O(1) versioned copy-on-write views (ARCHITECTURE.md):
// taking one costs microseconds regardless of master size, it is
// internally atomic with respect to master writes, and it is
// lock-free to read — which is what lets many batches, and many
// async job runners, fix concurrently against their own frozen
// views while the live system keeps absorbing master-data inserts.
// For batches too long to hold a connection open, internal/jobs wraps
// the same pipeline in a persistent job queue (cerfixd -jobs-dir,
// POST /api/v1/jobs, `cerfix jobs`): submitted work is journaled,
// tracked through a queued/running/done lifecycle, recovered across
// daemon restarts, and executed by a configurable pool of concurrent
// runners (cerfixd -jobs-workers) with fair FIFO admission.
//
// The subpackages under internal/ implement the pieces; this package
// re-exports the types a downstream user needs.
package cerfix

import (
	"fmt"
	"io"
	"slices"

	"cerfix/internal/audit"
	"cerfix/internal/core"
	"cerfix/internal/discovery"
	"cerfix/internal/faultfs"
	"cerfix/internal/master"
	"cerfix/internal/monitor"
	"cerfix/internal/region"
	"cerfix/internal/rule"
	"cerfix/internal/schema"
	"cerfix/internal/value"
)

// Re-exported types: the vocabulary of the public API.
type (
	// Schema describes a relation (input or master).
	Schema = schema.Schema
	// Attribute is one schema column.
	Attribute = schema.Attribute
	// Tuple is one row under a schema.
	Tuple = schema.Tuple
	// AttrSet is a set of attribute positions.
	AttrSet = schema.AttrSet
	// Rule is one editing rule.
	Rule = rule.Rule
	// RuleSet is an ordered rule collection.
	RuleSet = rule.Set
	// Session is one interactive fixing session of the data monitor.
	Session = monitor.Session
	// Region is one certain region (Z, Tc).
	Region = region.Region
	// RegionOptions tunes the region finder.
	RegionOptions = region.Options
	// ConsistencyReport is the rule engine's static analysis output.
	ConsistencyReport = core.ConsistencyReport
	// ChaseResult is the outcome of one fixing pass.
	ChaseResult = core.ChaseResult
	// AuditLog records user validations and rule fixes.
	AuditLog = audit.Log
	// AuditRecord is one audited event.
	AuditRecord = audit.Record
	// AttrStats is the per-attribute audit aggregate (Fig. 4).
	AttrStats = audit.AttrStats
	// MasterStore is the master data manager.
	MasterStore = master.Store
)

// NewSchema builds a relation schema from attribute definitions.
func NewSchema(name string, attrs ...Attribute) (*Schema, error) {
	return schema.New(name, attrs...)
}

// StringAttrs builds string-domain attributes from names — the common
// case for data-entry schemas.
func StringAttrs(names ...string) []Attribute {
	out := make([]Attribute, len(names))
	for i, n := range names {
		out[i] = schema.Str(n)
	}
	return out
}

// ParseRules parses the editing-rule DSL (one rule per line, e.g.
// `phi1: match zip~zip set AC := AC when type = "2"`).
func ParseRules(dsl string) (*RuleSet, error) { return rule.ParseSet(dsl) }

// System is a configured CerFix instance (Fig. 1 of the paper).
type System struct {
	input  *schema.Schema
	store  *master.Store
	rules  *rule.Set
	engine *core.Engine
	log    *audit.Log
	mon    *monitor.Monitor
	// ranking is every certain region of the current engine under
	// regionOpts with K = 0, in TopK order. K only cuts that ranking
	// short, so the monitor holds its first regionOpts.K regions and
	// Regions(k) serves its first k. monitorInstance builds both, and
	// dropMonitor drops both.
	ranking []*region.Region
	// regionOpts is used when (re)computing regions for the monitor.
	regionOpts *region.Options
	// walCursor lets Save prove pure-append windows and go to the WAL
	// instead of rewriting the checkpoint (persist.go).
	walCursor *walCursor
	// loadInfo records provenance when the system came from Load.
	loadInfo *LoadInfo
	// fs routes all persistence I/O; nil means the real filesystem
	// (faultfs.OS). Fault-injection tests swap in an injector.
	fs faultfs.FS
	// health, when set, receives the outcome of every Save so the
	// daemon can degrade gracefully on storage faults (persist.go).
	health *faultfs.Health
}

// pfs returns the filesystem persistence routes through.
func (s *System) pfs() faultfs.FS {
	if s.fs == nil {
		return faultfs.OS
	}
	return s.fs
}

// SetPersistenceHealth wires the persistence health tracker: every
// Save reports its outcome (success restores healthy, a transient
// storage fault degrades).
func (s *System) SetPersistenceHealth(h *faultfs.Health) { s.health = h }

// New creates a system for the given input schema, master schema and
// rule DSL. Master data starts empty; add rows before opening
// sessions (regions and fixes need master coverage).
func New(input, masterSchema *Schema, rulesDSL string) (*System, error) {
	rs, err := rule.ParseSet(rulesDSL)
	if err != nil {
		return nil, fmt.Errorf("cerfix: %w", err)
	}
	return NewWithRules(input, masterSchema, rs)
}

// NewWithRules is New with an already-built rule set.
func NewWithRules(input, masterSchema *Schema, rs *RuleSet) (*System, error) {
	st := master.New(masterSchema)
	eng, err := core.NewEngine(input, rs, st)
	if err != nil {
		return nil, fmt.Errorf("cerfix: %w", err)
	}
	return &System{
		input:  input,
		store:  st,
		rules:  rs,
		engine: eng,
		log:    audit.NewLog(),
	}, nil
}

// InputSchema returns the input relation schema.
func (s *System) InputSchema() *Schema { return s.input }

// MasterSchema returns the master relation schema.
func (s *System) MasterSchema() *Schema { return s.store.Schema() }

// Master exposes the master data manager.
func (s *System) Master() *MasterStore { return s.store }

// Audit returns the system-wide audit log.
func (s *System) Audit() *AuditLog { return s.log }

// MemStats reports the master data manager's memory accounting: row
// bytes, snapshot-shared bytes and COW debt, and rule-index footprint.
// Surfaced on GET /api/v1/status and in the jobs queue stats.
func (s *System) MemStats() master.MemStats { return s.store.MemStats() }

// Engine exposes the underlying rule engine (chase + analyses).
func (s *System) Engine() *core.Engine { return s.engine }

// SnapshotEngine returns a frozen O(1) view of the rule engine — the
// rule set (immutable after publish) plus a copy-on-write master data
// snapshot captured atomically under the store's own lock. Master
// data mutations (AddMasterRow) no longer need caller-side
// serialization with the capture; only the engine-pointer swap of
// AddRule/RemoveRule does (the HTTP server's lock covers it). Once
// taken, any number of goroutines chase against the snapshot while
// the live system keeps mutating — the batch pipeline
// (internal/pipeline) and concurrent job runners (internal/jobs) run
// against such snapshots.
func (s *System) SnapshotEngine() *core.Engine { return s.engine.Snapshot() }

// AddMasterRow appends one master tuple given values in schema order.
func (s *System) AddMasterRow(vals ...string) error {
	_, err := s.store.InsertValues(value.FromStrings(vals)...)
	if err == nil {
		s.dropMonitor() // regions derive from master data
	}
	return err
}

// LoadMasterCSV bulk-loads master tuples from CSV (header row of
// attribute names required).
func (s *System) LoadMasterCSV(r io.Reader) error {
	if err := s.store.Table().ReadCSV(r); err != nil {
		return err
	}
	if err := s.store.PrepareForRules(s.rules); err != nil {
		return err
	}
	s.dropMonitor()
	return nil
}

// Rules returns the current rules in DSL form, one per line.
func (s *System) Rules() string { return s.rules.String() }

// RuleSet exposes the rule set.
func (s *System) RuleSet() *RuleSet { return s.rules }

// AddRule parses and installs one rule line, revalidating the set.
// The installed set is a fresh copy (copy-on-write): rule sets are
// immutable once published to an engine, so engine snapshots taken
// before the change keep fixing against the rules of their instant.
func (s *System) AddRule(dsl string) error {
	r, err := rule.Parse(dsl)
	if err != nil {
		return err
	}
	if err := r.Validate(s.input, s.store.Schema()); err != nil {
		return err
	}
	rs := s.rules.Clone()
	if err := rs.Add(r); err != nil {
		return err
	}
	return s.rebuild(rs)
}

// RemoveRule deletes a rule by ID, reporting whether it existed. Like
// AddRule, the change lands in a fresh set copy; published engines
// and snapshots keep theirs.
func (s *System) RemoveRule(id string) bool {
	rs := s.rules.Clone()
	if !rs.Remove(id) {
		return false
	}
	if err := s.rebuild(rs); err != nil {
		// Removal cannot invalidate remaining rules; rebuild errors
		// would indicate a programming error.
		panic(err)
	}
	return true
}

func (s *System) rebuild(rs *rule.Set) error {
	eng, err := core.NewEngine(s.input, rs, s.store)
	if err != nil {
		return err
	}
	s.rules = rs
	s.engine = eng
	s.dropMonitor()
	return nil
}

// SetRegionOptions overrides the options used when the monitor
// computes its initial-suggestion regions (nil reverts to defaults).
func (s *System) SetRegionOptions(o *RegionOptions) {
	s.regionOpts = o
	s.dropMonitor()
}

// CheckConsistency runs the rule engine's static analysis (§2: whether
// the rules "are dirty themselves").
func (s *System) CheckConsistency() *ConsistencyReport {
	return s.engine.CheckConsistency()
}

// Regions returns the top-k certain regions (k <= 0 returns all) under
// the region options: the first k of the ranking the monitor was built
// with, computed only when a master insert, a rule change or
// SetRegionOptions dropped it.
func (s *System) Regions(k int) []*Region {
	s.monitorInstance()
	return slices.Clone(firstRegions(s.ranking, k))
}

// monitorInstance lazily builds the data monitor (regions are
// pre-computed here, as the paper describes, to make suggestions
// cheap).
func (s *System) monitorInstance() *monitor.Monitor {
	if s.mon == nil {
		opts := region.Options{}
		if s.regionOpts != nil {
			opts = *s.regionOpts
		}
		k := opts.K
		opts.K = 0
		s.ranking = region.NewFinder(s.engine).TopK(&opts)
		// Never nil: a nil Regions would make the monitor compute its
		// own under the default options.
		regs := append([]*region.Region{}, firstRegions(s.ranking, k)...)
		s.mon = monitor.New(s.engine, &monitor.Options{Regions: regs, Log: s.log})
	}
	return s.mon
}

// dropMonitor discards the monitor and its ranking after a change the
// regions derive from.
func (s *System) dropMonitor() {
	s.mon = nil
	s.ranking = nil
}

// firstRegions returns the first k regions of a ranking, or all of them
// when k <= 0.
func firstRegions(ranking []*region.Region, k int) []*region.Region {
	if k > 0 && k < len(ranking) {
		return ranking[:k]
	}
	return ranking
}

// Monitor exposes the data monitor.
func (s *System) Monitor() *monitor.Monitor { return s.monitorInstance() }

// NewSession opens a fixing session for a tuple given as an
// attribute→value map (absent attributes are empty).
func (s *System) NewSession(values map[string]string) (*Session, error) {
	tu, err := schema.TupleFromMap(s.input, values)
	if err != nil {
		return nil, err
	}
	return s.monitorInstance().NewSession(tu)
}

// NewSessionTuple opens a session for an existing tuple.
func (s *System) NewSessionTuple(t *Tuple) (*Session, error) {
	return s.monitorInstance().NewSession(t)
}

// Fix runs a non-interactive certain-fix pass: the caller asserts that
// the given attributes are correct, and the engine fixes what the
// rules warrant. It returns the fixed tuple copy and the chase result.
func (s *System) Fix(t *Tuple, validatedAttrs []string) (*Tuple, *ChaseResult) {
	seed := schema.SetOfNames(s.input, validatedAttrs...)
	res := s.engine.Chase(t, seed)
	return res.Tuple, res
}

// DiscoverRules profiles the system's master data for functional
// dependencies and returns the editing rules derivable from them
// (paper §2: rules can be "derived from integrity constraints ... for
// which discovery algorithms are already in place"). It requires the
// input and master schemas to coincide structurally (same attribute
// names), since the derived rules match and copy attributes by name on
// both sides. Rules are returned for review — install the accepted
// ones with AddRule.
func (s *System) DiscoverRules(maxLHS int) ([]*Rule, error) {
	masterSch := s.store.Schema()
	for _, a := range s.input.AttrNames() {
		if !masterSch.Has(a) {
			return nil, fmt.Errorf("cerfix: discovery needs matching schemas; master lacks %q", a)
		}
	}
	opts := &discovery.Options{MaxLHS: maxLHS}
	rules, _, err := discovery.DeriveRulesFromMaster(s.input, s.store.All(), opts)
	if err != nil {
		return nil, err
	}
	// Re-validate against the actual schema pair (attribute order may
	// differ between input and master).
	for _, r := range rules {
		if err := r.Validate(s.input, masterSch); err != nil {
			return nil, err
		}
	}
	return rules, nil
}
