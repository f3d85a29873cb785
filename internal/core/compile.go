package core

import (
	"fmt"
	"math/bits"
	"sync"

	"cerfix/internal/master"
	"cerfix/internal/pattern"
	"cerfix/internal/rule"
	"cerfix/internal/schema"
	"cerfix/internal/value"
)

// This file implements the compiled chase program: the engine's rule
// set resolved ONCE into a form the per-tuple hot path can execute
// without re-deriving anything. The legacy loop (Engine.ChaseLegacy)
// re-resolves attribute names to indexes, rebuilds premise/target
// AttrSets, re-projects match keys and rescans the entire rule set
// every round; the compiled program precomputes all of it per engine
// and replaces the O(rounds × |rules|) rescan with an agenda
// scheduler driven by an attr→dependent-rules index, so a round only
// touches rules whose premise actually became satisfiable. Results
// are byte-identical to the legacy loop — same changes in the same
// order with the same Round stamps, same conflicts, same Rounds —
// which the parity suite (parity_test.go and the pipeline artifact
// tests) pins. See ARCHITECTURE.md, "The compiled chase program".

// chaseProgram is the store-independent compiled form of one
// (input schema, rule set) pair. It is built once in NewEngine and
// shared by every snapshot of the engine (snapshots share the schema
// and the immutable-after-publish rule set, so the compile stays
// valid). Store-dependent state — the master lookup handles — binds
// per Chaser, since each engine view carries its own store.
type chaseProgram struct {
	input *schema.Schema
	rules []compiledRule
	// deps[a] lists the indices of rules whose premise contains input
	// attribute position a — the agenda's dependency index: when a is
	// newly validated, exactly these rules move closer to readiness.
	deps [][]int32
	// words is the rule-bitset width in uint64 words (≥ 1).
	words int
	// groups counts the probe groups: rules that share both their X
	// positions and their Xm share one probe per chase (see
	// Chaser.lookup).
	groups int
	// staticSkip flags rules whose pattern is unsatisfiable over the
	// input schema: matches() is false for every tuple, so the agenda
	// would evaluate them to no-fire on every chase. A flagged rule
	// whose premise becomes satisfied is counted skipped instead of
	// entering the agenda.
	staticSkip []uint64
	// pool holds idle Chasers for reuse across runs and across engine
	// views (snapshots share the program, so a chaser released by one
	// batch run can be rebound to the next run's snapshot without
	// rebuilding its scratch). See Engine.AcquireChaser.
	pool chaserPool
}

// chaserPool is a mutex-guarded free list of idle Chasers. A plain
// list (rather than sync.Pool) keeps reuse deterministic — a released
// chaser is never dropped on a GC whim — and acquisition happens once
// per run or per pipeline worker, never per tuple, so the lock is
// cold. The list is bounded by the peak number of concurrently live
// chasers, which the worker counts of the pipeline and job runners
// bound in turn.
type chaserPool struct {
	mu   sync.Mutex
	idle []*Chaser
}

func (p *chaserPool) get() *Chaser {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.idle); n > 0 {
		c := p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
		return c
	}
	return nil
}

func (p *chaserPool) put(c *Chaser) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.idle = append(p.idle, c)
}

// compiledRule is one rule with every name resolved and every derived
// set precomputed.
type compiledRule struct {
	src *rule.Rule
	id  string
	// premise is X ∪ Xp; targets is B (both resolved bitsets).
	premise, targets schema.AttrSet
	// matchInputPos are the input positions of X in rule order — the
	// probe key's projection, encoded without materialization.
	matchInputPos []int
	// targetInputPos are the input positions of B in rule order.
	targetInputPos []int
	// conds is the compiled pattern: per condition, the input position
	// and domain are pre-resolved so a match is a slice walk.
	conds []compiledCond
	// matchInputAttrs/matchMasterAttrs/rhsMasterAttrs are the rule's
	// attribute lists, captured once (the rule methods allocate fresh
	// slices per call). The master lists feed handle resolution and
	// the slow-path lookup; the input list feeds conflict details.
	matchInputAttrs  []string
	matchMasterAttrs []string
	rhsMasterAttrs   []string
	// handleKey is the (Xm, Bm) registry key, canonicalized once so
	// binding (or rebinding) a Chaser — one handle per rule, re-resolved
	// every time a pooled chaser moves to a new engine view — skips the
	// per-handle string build.
	handleKey string
	// group is the rule's probe group: rules with the same X positions
	// and the same Xm probe the same key on the same index.
	group int
}

// compiledCond is one pattern condition with its attribute resolved.
type compiledCond struct {
	pos  int
	dom  value.Domain
	cond pattern.Condition
}

// matches reports whether the tuple satisfies the compiled pattern.
func (r *compiledRule) matches(t *schema.Tuple) bool {
	for i := range r.conds {
		c := &r.conds[i]
		if !c.cond.Matches(t.Vals[c.pos], c.dom) {
			return false
		}
	}
	return true
}

// compileProgram resolves the rule set against the input schema. The
// rules must already be validated (NewEngine runs Set.Validate
// first), so every attribute resolves.
func compileProgram(input *schema.Schema, rules []*rule.Rule) *chaseProgram {
	p := &chaseProgram{
		input: input,
		rules: make([]compiledRule, len(rules)),
		deps:  make([][]int32, input.Len()),
		words: (len(rules) + 63) / 64,
	}
	if p.words == 0 {
		p.words = 1
	}
	p.staticSkip = make([]uint64, p.words)
	groupOf := make(map[string]int)
	for i, r := range rules {
		cr := &p.rules[i]
		cr.src = r
		cr.id = r.ID
		cr.premise = r.PremiseAttrs(input)
		cr.targets = r.TargetAttrs(input)
		cr.matchInputAttrs = r.MatchInputAttrs()
		cr.matchMasterAttrs = r.MatchMasterAttrs()
		cr.rhsMasterAttrs = r.SetMasterAttrs()
		cr.handleKey = master.HandleKey(cr.matchMasterAttrs, cr.rhsMasterAttrs)
		cr.matchInputPos = make([]int, len(cr.matchInputAttrs))
		for j, a := range cr.matchInputAttrs {
			cr.matchInputPos[j] = input.MustIndex(a)
		}
		gk := []byte(master.HandleKey(cr.matchMasterAttrs, nil))
		for _, pos := range cr.matchInputPos {
			gk = append(gk, byte(pos))
		}
		g, ok := groupOf[string(gk)]
		if !ok {
			g = len(groupOf)
			groupOf[string(gk)] = g
		}
		cr.group = g
		cr.targetInputPos = make([]int, len(r.Set))
		for j, c := range r.Set {
			cr.targetInputPos[j] = input.MustIndex(c.Input)
		}
		cr.conds = make([]compiledCond, len(r.When.Conds))
		for j, cond := range r.When.Conds {
			pos := input.MustIndex(cond.Attr)
			cr.conds[j] = compiledCond{pos: pos, dom: input.Attr(pos).Domain, cond: cond}
		}
		for _, a := range cr.premise.Positions() {
			p.deps[a] = append(p.deps[a], int32(i))
		}
		if !pattern.Satisfiable(r.When, input) {
			p.staticSkip[i>>6] |= 1 << uint(i&63)
		}
	}
	p.groups = len(groupOf)
	return p
}

// Chaser executes the compiled chase program against one engine view,
// reusing all scratch state (ready bitsets, missing-premise counters,
// the per-chase probe memo and — via ChaseScratch — the result itself)
// across calls, so tight fixing loops run allocation-free per tuple in
// steady state. A Chaser is NOT safe for
// concurrent use — create one per goroutine; the batch pipeline gives
// each worker its own. The engine's rules and master data must not be
// mutated while chases run (snapshot the engine first when mutation
// is possible — see Engine.Snapshot).
type Chaser struct {
	eng  *Engine
	prog *chaseProgram
	// handles are the per-rule master lookup handles, index-aligned
	// with prog.rules (a value slice: one allocation per Chaser, not
	// one per rule). On frozen stores each handle holds the resolved
	// rule index; on live stores it holds the prebuilt registry key.
	handles []master.RuleHandle

	// Agenda scratch, sized to the rule set. No conflict-dedup state
	// is needed: the legacy loop dedups MasterAmbiguous per rule and
	// ValidatedContradiction per (rule, target) because it rescans
	// every rule every round, but the agenda evaluates each rule at
	// most once per chase (see run), so duplicates are impossible by
	// construction.
	missing   []int32  // unvalidated premise attrs per rule
	cur, next []uint64 // this round's / next round's ready bitsets
	// skipped/evaluated count this chase's premise-ready rules that
	// staticSkip kept off the agenda and that the agenda evaluated
	// (reported in ChaseResult.Stats).
	skipped, evaluated int

	// The per-chase probe memo, sized once here and cleared by run:
	// entries[g] is probe group g's index entry, valid where probed[g]
	// is set. It is exact on every view: the agenda evaluates a rule
	// only once its premise X ∪ Xp is validated, a validated cell never
	// changes within a chase, and the Engine contract forbids mutating
	// a view during one.
	entries []master.Entry
	probed  []bool

	// ChaseScratch's reusable result (tuple values, change/conflict
	// slices keep their capacity across calls).
	scratchRes   ChaseResult
	scratchTuple schema.Tuple
}

// NewChaser builds a reusable single-goroutine chase runner bound to
// the engine's compiled program and its master view. Callers that run
// repeatedly (pipeline workers, job runners, one-off Engine.Chase
// calls) should prefer AcquireChaser/Release, which recycle chasers —
// scratch buffers included — through the engine's program-level pool.
func (e *Engine) NewChaser() *Chaser {
	p := e.prog
	c := &Chaser{
		prog:    p,
		handles: make([]master.RuleHandle, len(p.rules)),
		missing: make([]int32, len(p.rules)),
		cur:     make([]uint64, p.words),
		next:    make([]uint64, p.words),
		entries: make([]master.Entry, p.groups),
		probed:  make([]bool, p.groups),
	}
	c.rebind(e)
	return c
}

// AcquireChaser returns a Chaser bound to this engine view, reusing an
// idle one from the compiled program's pool when available. The pool
// is shared by every snapshot of the engine (snapshots share the
// program), so a chaser released after one batch run serves the next
// run's snapshot with all its scratch — agenda bitsets, probe memo,
// warmed result capacities — intact; only the per-rule master handles
// are re-resolved against this view's store. Release the chaser with
// Chaser.Release when done; like NewChaser's, the returned chaser is
// single-goroutine.
func (e *Engine) AcquireChaser() *Chaser {
	if c := e.prog.pool.get(); c != nil {
		c.rebind(e)
		return c
	}
	return e.NewChaser()
}

// Release parks the chaser in its program's pool for the next
// AcquireChaser. The chaser must not be used afterwards. Master-store
// references are dropped so a released chaser never pins a dead
// snapshot's store.
func (c *Chaser) Release() {
	c.eng = nil
	for i := range c.handles {
		c.handles[i] = master.RuleHandle{}
	}
	clear(c.entries)
	c.prog.pool.put(c)
}

// rebind points the chaser at an engine view, re-resolving every rule
// handle against that view's store. The engine must share c.prog (all
// snapshots of one engine do); scratch state carries over untouched.
func (c *Chaser) rebind(e *Engine) {
	c.eng = e
	for i := range c.prog.rules {
		c.handles[i] = e.store.HandleByKey(c.prog.rules[i].handleKey)
	}
}

// Chase runs the compiled chase on a copy of t, starting from the
// validated attribute set. The result is freshly allocated and safe
// to retain (the pipeline's resequencing window holds many at once);
// use ChaseScratch when the result is consumed before the next call.
// Results are byte-identical to Engine.ChaseLegacy.
func (c *Chaser) Chase(t *schema.Tuple, validated schema.AttrSet) *ChaseResult {
	res := &ChaseResult{Tuple: t.Clone(), Validated: validated}
	c.run(res)
	return res
}

// ChaseScratch is Chase into the Chaser's reusable result: the
// returned ChaseResult — its tuple, changes and conflicts included —
// is valid only until the next call on this Chaser. In steady state
// (buffers warmed, rule-index access path, no conflicts) a call
// performs zero heap allocations; the benchmark suite asserts this.
func (c *Chaser) ChaseScratch(t *schema.Tuple, validated schema.AttrSet) *ChaseResult {
	if c.scratchRes.Tuple == nil {
		c.scratchRes.Tuple = &c.scratchTuple
	}
	return c.ChaseInto(&c.scratchRes, t, validated)
}

// ChaseInto is ChaseScratch into a caller-owned result: the chase runs
// on a copy of t written into dst, reusing every buffer dst already
// carries — its tuple's value slice and its change/conflict capacity
// survive across calls, so arenas of ChaseResults (the batch
// pipeline's per-window result slots) reach zero steady-state
// allocations the same way the Chaser's own scratch does. dst is
// overwritten wholesale; whatever it references is invalid the moment
// the caller reuses it. A nil dst.Tuple gets one allocated on first
// use, and the change list is sized for the most a chase can record,
// one change per attribute (a change validates its attribute), so a
// warm dst never grows whichever tuple it chases next. Returns dst.
// Results are byte-identical to Engine.ChaseLegacy.
func (c *Chaser) ChaseInto(dst *ChaseResult, t *schema.Tuple, validated schema.AttrSet) *ChaseResult {
	tu := dst.Tuple
	if tu == nil {
		tu = &schema.Tuple{}
		dst.Tuple = tu
	}
	if cap(tu.Vals) < len(t.Vals) {
		tu.Vals = make(value.List, len(t.Vals))
	}
	tu.Vals = tu.Vals[:len(t.Vals)]
	copy(tu.Vals, t.Vals)
	tu.Schema = t.Schema
	tu.ID = t.ID
	dst.Validated = validated
	if cap(dst.Changes) < len(t.Vals) {
		dst.Changes = make([]Change, 0, len(t.Vals))
	}
	dst.Changes = dst.Changes[:0]
	dst.Conflicts = dst.Conflicts[:0]
	dst.Rounds = 0
	c.run(dst)
	return dst
}

// run executes the agenda loop. The scheduling reproduces the legacy
// round-robin scan exactly:
//
//   - a rule is evaluated at most once per chase, at the first moment
//     its premise X ∪ Xp is fully validated. Premise attributes are
//     immutable once validated, so a premise-satisfied rule's pattern
//     and master lookup outcomes are fixed from that moment on, and
//     re-scanning it (as the legacy loop does every round) can never
//     produce anything new — the single evaluation is exhaustive;
//   - within a round, ready rules evaluate in rule-set order. A rule
//     made ready by a firing at position p joins the CURRENT round if
//     its position follows p (the legacy scan would still reach it)
//     and the NEXT round otherwise;
//   - the round counter advances exactly when the legacy pass flag
//     would: a round with no productive evaluation is terminal.
func (c *Chaser) run(res *ChaseResult) {
	p := c.prog
	for i := range c.cur {
		c.cur[i], c.next[i] = 0, 0
	}
	c.skipped, c.evaluated = 0, 0
	clear(c.probed)
	// Seed: per-rule missing-premise counts under the initial
	// validated set; rules already satisfied form round 1's agenda —
	// unless statically unsatisfiable, in which case they never enter it.
	for i := range p.rules {
		miss := int32(p.rules[i].premise.Minus(res.Validated).Count())
		c.missing[i] = miss
		if miss == 0 {
			if p.staticSkip[i>>6]&(1<<uint(i&63)) != 0 {
				c.skipped++
				continue
			}
			c.cur[i>>6] |= 1 << uint(i&63)
		}
	}
	round := 1
	for {
		progressed := false
		for w := 0; w < len(c.cur); w++ {
			for c.cur[w] != 0 {
				b := bits.TrailingZeros64(c.cur[w])
				c.cur[w] &^= 1 << uint(b)
				// Firings enqueue later-positioned rules into cur, so
				// re-reading cur[w] (and continuing to later words)
				// picks them up within this round, in position order.
				c.evaluated++
				if c.evaluate(w<<6|b, round, res) {
					progressed = true
				}
			}
		}
		res.Rounds = round
		if !progressed {
			res.Stats = ChaseStats{RulesSkipped: c.skipped, RulesEvaluated: c.evaluated}
			return
		}
		round++
		// cur is fully drained (all zeros): swap in the next round's
		// agenda and reuse cur's storage for the round after.
		c.cur, c.next = c.next, c.cur
	}
}

// evaluate applies rule ri (premise known satisfied), returning
// whether it made progress. Single master lookup per evaluation: the
// same probe serves fixing, the contradiction sweep over validated
// targets and ambiguity detection.
func (c *Chaser) evaluate(ri, round int, res *ChaseResult) bool {
	cr := &c.prog.rules[ri]
	if !cr.matches(res.Tuple) {
		return false
	}
	ans := c.lookup(ri, cr, res.Tuple)
	switch ans.Status {
	case master.NoMatch:
		return false
	case master.Conflict:
		// When every target is already validated the rule has nothing
		// left to fix and the ambiguity is moot — the legacy loop
		// skips silently (its all-validated short-circuit), so the
		// compiled path must too.
		if res.Validated.ContainsAll(cr.targets) {
			return false
		}
		res.Conflicts = append(res.Conflicts, Conflict{
			Kind:   MasterAmbiguous,
			RuleID: cr.id,
			Detail: fmt.Sprintf("key %v on %v", res.Tuple.Project(cr.matchInputAttrs).Strings(), cr.matchMasterAttrs),
		})
		return false
	}
	progressed := false
	for i, bi := range cr.targetInputPos {
		want := ans.RHS(i)
		have := res.Tuple.Vals[bi]
		if res.Validated.Has(bi) {
			if have != want {
				res.Conflicts = append(res.Conflicts, Conflict{
					Kind:     ValidatedContradiction,
					RuleID:   cr.id,
					Attr:     cr.src.Set[i].Input,
					Have:     have,
					Want:     want,
					MasterID: ans.Witness,
				})
			}
			continue
		}
		res.Tuple.Vals[bi] = want
		res.Validated = res.Validated.With(bi)
		res.Changes = append(res.Changes, Change{
			Attr:     cr.src.Set[i].Input,
			Old:      have,
			New:      want,
			Source:   SourceRule,
			RuleID:   cr.id,
			MasterID: ans.Witness,
			Round:    round,
		})
		progressed = true
		// Agenda maintenance: bi just went unvalidated → validated, so
		// every rule with bi in its premise moves one attribute closer
		// to readiness. (Already-evaluated rules can't appear here:
		// their premises were fully validated, bi wasn't.)
		for _, rj := range c.prog.deps[bi] {
			c.missing[rj]--
			if c.missing[rj] == 0 {
				if c.prog.staticSkip[rj>>6]&(1<<uint(rj&63)) != 0 {
					c.skipped++
					continue
				}
				if int(rj) > ri {
					c.cur[rj>>6] |= 1 << uint(rj&63)
				} else {
					c.next[rj>>6] |= 1 << uint(rj&63)
				}
			}
		}
	}
	return progressed
}

// lookup performs the rule's unique-RHS probe. On the rule-index
// access path each probe group's key is probed at most once per chase:
// the first rule of a group to evaluate probes its pre-resolved handle
// with t's values at X, read in place, and every later rule of the
// group reads its own Bm off the remembered entry. No step allocates.
// A key no master tuple carries finds no entry and answers NoMatch;
// ModeScan and unregistered ad-hoc pairs take the store's scan,
// byte-identical to the legacy engine's.
func (c *Chaser) lookup(ri int, cr *compiledRule, t *schema.Tuple) master.Answer {
	if c.eng.store.Mode() == master.ModeRuleIndex {
		h, g := &c.handles[ri], cr.group
		var ans master.Answer
		var ok bool
		if c.probed[g] {
			ans, ok = h.Read(c.entries[g])
		} else {
			var e master.Entry
			if e, ans, ok = h.Probe(t.Vals, cr.matchInputPos); ok {
				c.entries[g], c.probed[g] = e, true
			}
		}
		if ok {
			return ans
		}
	}
	return master.ListAnswer(c.eng.store.UniqueRHS(cr.matchMasterAttrs, t.ProjectAt(cr.matchInputPos), cr.rhsMasterAttrs))
}
