// Package experiments implements the reproduction drivers for every
// table/figure of the paper's demonstration (E1–E3) and the
// scalability/accuracy experiment families its modules inherit from
// the companion paper [7] (E4–E7). Both cmd/cerfixbench and the root
// testing.B benchmarks call into this package so the numbers come from
// one implementation.
package experiments

import (
	"fmt"
	"time"

	"cerfix/internal/audit"
	"cerfix/internal/cfd"
	"cerfix/internal/core"
	"cerfix/internal/dataset"
	"cerfix/internal/master"
	"cerfix/internal/metrics"
	"cerfix/internal/monitor"
	"cerfix/internal/oracle"
	"cerfix/internal/region"
	"cerfix/internal/rule"
	"cerfix/internal/schema"
	"cerfix/internal/value"
)

// DemoEngine wires the paper's Fig. 2 configuration (3 master tuples,
// rules φ1–φ9).
func DemoEngine() (*core.Engine, error) {
	st := master.New(dataset.PersonSchema())
	for _, row := range dataset.DemoMasterRows() {
		if _, err := st.InsertValues(row...); err != nil {
			return nil, err
		}
	}
	return core.NewEngine(dataset.CustSchema(), dataset.DemoRules(), st)
}

// --- E1: Fig. 2 — rule management & consistency -------------------------

// E1Result reports the consistency analysis of the demo rule set.
type E1Result struct {
	// Consistent is the analysis verdict (paper: the nine rules pass).
	Consistent bool
	// Errors and Warnings count issues by severity.
	Errors, Warnings int
	// ProbesRun counts Church–Rosser probe chases.
	ProbesRun int
	// Rules is the rule count analyzed.
	Rules int
	// Elapsed is the analysis wall time.
	Elapsed time.Duration
}

// RunE1 executes experiment E1.
func RunE1() (*E1Result, error) {
	eng, err := DemoEngine()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	rep := eng.CheckConsistency()
	return &E1Result{
		Consistent: rep.Consistent(),
		Errors:     len(rep.Errors()),
		Warnings:   len(rep.Warnings()),
		ProbesRun:  rep.ProbesRun,
		Rules:      eng.Rules().Len(),
		Elapsed:    time.Since(start),
	}, nil
}

// --- E2: Fig. 3 — monitor interaction rounds ------------------------------

// E2Round records one interaction round of the walkthrough.
type E2Round struct {
	// Validated lists the attributes the user asserted this round.
	Validated []string
	// Fixed lists attributes CerFix validated in response (with
	// rewrites marked "attr:old->new").
	Fixed []string
	// NextSuggestion is what CerFix asks for next (empty when done).
	NextSuggestion []string
}

// E2Result reports the Fig. 3 walkthrough.
type E2Result struct {
	Rounds  []E2Round
	Certain bool
	// MatchesGroundTruth reports the final tuple equals the entity.
	MatchesGroundTruth bool
}

// RunE2 reenacts the Fig. 3 walkthrough: the user first validates
// their own choice {AC, phn, type, item}, then follows suggestions.
func RunE2() (*E2Result, error) {
	eng, err := DemoEngine()
	if err != nil {
		return nil, err
	}
	mon := monitor.New(eng, nil)
	sess, err := mon.NewSession(dataset.DemoInputFig3())
	if err != nil {
		return nil, err
	}
	truth := dataset.DemoGroundTruthFig3()
	out := &E2Result{}
	asserts := []string{"AC", "phn", "type", "item"} // the Fig. 3(a) user choice
	for round := 0; !sess.Done() && round < 10; round++ {
		if round > 0 {
			asserts = sess.Suggestion()
		}
		m := make(map[string]string, len(asserts))
		for _, a := range asserts {
			m[a] = string(truth.Get(a))
		}
		res, err := sess.Validate(m)
		if err != nil {
			return nil, err
		}
		r := E2Round{Validated: asserts}
		for _, c := range res.Changes {
			if c.IsRewrite() {
				r.Fixed = append(r.Fixed, fmt.Sprintf("%s:%s->%s", c.Attr, c.Old, c.New))
			} else {
				r.Fixed = append(r.Fixed, c.Attr)
			}
		}
		r.NextSuggestion = sess.Suggestion()
		out.Rounds = append(out.Rounds, r)
	}
	out.Certain = sess.Certain()
	out.MatchesGroundTruth = sess.Tuple.Equal(truth)
	return out, nil
}

// --- E3: Fig. 4 — auditing statistics --------------------------------------

// E3Result reports the auditing statistics over a fixed stream.
type E3Result struct {
	// Tuples is the stream length.
	Tuples int
	// MobileShare is the workload's mobile/home mix.
	MobileShare float64
	// PerAttr is the Fig. 4 per-attribute user%/auto% table.
	PerAttr []audit.AttrStats
	// Overall aggregates all attributes (the paper's "20% user / 80%
	// auto" claim).
	Overall audit.AttrStats
	// RewriteShare is the fraction of auto-validated cells whose value
	// was actually rewritten (vs confirmed).
	RewriteShare float64
	// AllCertain reports whether every session reached a certain fix.
	AllCertain bool
}

// RunE3 cleans a stream of nInputs dirty customer tuples (noise rate
// noiseRate, mobile/home mix mobileShare) with the oracle following
// suggestions, and returns the audit statistics.
func RunE3(nEntities, nInputs int, noiseRate, mobileShare float64, seed uint64) (*E3Result, error) {
	g := dataset.NewCustomerGen(seed)
	g.MobileShare = mobileShare
	w, err := g.GenerateWorkload(nEntities, nInputs, noiseRate, nil)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(dataset.CustSchema(), dataset.DemoRules(), w.Store)
	if err != nil {
		return nil, err
	}
	mon := monitor.New(eng, nil)
	allCertain := true
	for i := range w.Dirty {
		sess, err := mon.NewSession(w.Dirty[i])
		if err != nil {
			return nil, err
		}
		u := oracle.NewUser(w.Truth[i], oracle.FollowSuggestions)
		if _, err := u.RunSession(sess); err != nil {
			return nil, err
		}
		if !sess.Certain() {
			allCertain = false
		}
	}
	overall := mon.Log().Overall()
	res := &E3Result{
		Tuples:      nInputs,
		MobileShare: mobileShare,
		PerAttr:     mon.Log().StatsPerAttr(),
		Overall:     overall,
		AllCertain:  allCertain,
	}
	if auto := overall.AutoFixed + overall.AutoConfirmed; auto > 0 {
		res.RewriteShare = float64(overall.AutoFixed) / float64(auto)
	}
	return res, nil
}

// RunE3Hosp is E3 on the HOSP workload, whose richer rule coverage
// (the minimal region covers 3 of 11 attributes) approaches the
// paper's headline 20/80 user/auto split.
func RunE3Hosp(nProviders, nInputs int, noiseRate float64, seed uint64) (*E3Result, error) {
	g := dataset.NewHospGen(seed)
	w, err := g.GenerateWorkload(nProviders, nInputs, noiseRate)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(dataset.HospSchema(), dataset.HospRules(), w.Store)
	if err != nil {
		return nil, err
	}
	mon := monitor.New(eng, nil)
	allCertain := true
	for i := range w.Dirty {
		sess, err := mon.NewSession(w.Dirty[i])
		if err != nil {
			return nil, err
		}
		u := oracle.NewUser(w.Truth[i], oracle.FollowSuggestions)
		if _, err := u.RunSession(sess); err != nil {
			return nil, err
		}
		if !sess.Certain() {
			allCertain = false
		}
	}
	overall := mon.Log().Overall()
	res := &E3Result{
		Tuples:     nInputs,
		PerAttr:    mon.Log().StatsPerAttr(),
		Overall:    overall,
		AllCertain: allCertain,
	}
	if auto := overall.AutoFixed + overall.AutoConfirmed; auto > 0 {
		res.RewriteShare = float64(overall.AutoFixed) / float64(auto)
	}
	return res, nil
}

// RunE3Dblp is E3 on the DBLP citation workload. The minimal region is
// {key} alone — the DBLP key determines title/authors/venue/year and
// venue then determines vfull — so the structural floor is 1/6 ≈ 17%
// user-validated cells, and the measured split (~19/81) reproduces the
// paper's headline "20% user / 80% CerFix" claim.
func RunE3Dblp(nPubs, nInputs int, noiseRate float64, seed uint64) (*E3Result, error) {
	g := dataset.NewDblpGen(seed)
	w, err := g.GenerateWorkload(nPubs, nInputs, noiseRate)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(dataset.DblpSchema(), dataset.DblpRules(), w.Store)
	if err != nil {
		return nil, err
	}
	mon := monitor.New(eng, nil)
	allCertain := true
	for i := range w.Dirty {
		sess, err := mon.NewSession(w.Dirty[i])
		if err != nil {
			return nil, err
		}
		u := oracle.NewUser(w.Truth[i], oracle.FollowSuggestions)
		if _, err := u.RunSession(sess); err != nil {
			return nil, err
		}
		if !sess.Certain() {
			allCertain = false
		}
	}
	overall := mon.Log().Overall()
	res := &E3Result{
		Tuples:     nInputs,
		PerAttr:    mon.Log().StatsPerAttr(),
		Overall:    overall,
		AllCertain: allCertain,
	}
	if auto := overall.AutoFixed + overall.AutoConfirmed; auto > 0 {
		res.RewriteShare = float64(overall.AutoFixed) / float64(auto)
	}
	return res, nil
}

// --- E4: accuracy vs noise — certain fixes vs CFD heuristic repair ---------

// E4Row is one noise-rate measurement.
type E4Row struct {
	NoiseRate float64
	// CerFix and Baseline are the cell-level repair qualities.
	CerFix, Baseline metrics.RepairQuality
	// BaselineBroken counts correct cells the heuristic overwrote
	// (duplicated from Baseline.BrokenCells for easy printing).
	BaselineBroken int
}

// E4CFDsDSL is the constant-CFD knowledge base the baseline uses: the
// AC→city pairs of the generator's city table (Example 1's ψ rules,
// extended to every city).
const E4CFDsDSL = `
c020: AC = "020" -> city = "Ldn"
c131: AC = "131" -> city = "Edi"
c161: AC = "161" -> city = "Mnc"
c141: AC = "141" -> city = "Gla"
c121: AC = "121" -> city = "Brm"
c113: AC = "113" -> city = "Lds"
c114: AC = "114" -> city = "Shf"
c151: AC = "151" -> city = "Lvp"
c191: AC = "191" -> city = "Ncl"
c117: AC = "117" -> city = "Brs"
c029: AC = "029" -> city = "Cdf"
c115: AC = "115" -> city = "Ntt"
`

// RunE4 sweeps noise rates, cleaning each workload twice: with CerFix
// (oracle follows suggestions; only rule-made rewrites count as the
// system's changes) and with the CFD heuristic baseline.
func RunE4(noiseRates []float64, nEntities, nInputs int, seed uint64) ([]E4Row, error) {
	cfds, err := cfd.ParseSet(E4CFDsDSL)
	if err != nil {
		return nil, err
	}
	var rows []E4Row
	for _, rate := range noiseRates {
		g := dataset.NewCustomerGen(seed)
		w, err := g.GenerateWorkload(nEntities, nInputs, rate, nil)
		if err != nil {
			return nil, err
		}
		eng, err := core.NewEngine(dataset.CustSchema(), dataset.DemoRules(), w.Store)
		if err != nil {
			return nil, err
		}
		mon := monitor.New(eng, nil)
		row := E4Row{NoiseRate: rate}
		rep := cfd.NewRepairer(cfds)
		for i := range w.Dirty {
			// CerFix path. The user-validated cells are excluded from
			// the scored repair (they are human input, not system
			// output): we score dirty-with-user-assertions vs final.
			sess, err := mon.NewSession(w.Dirty[i])
			if err != nil {
				return nil, err
			}
			u := oracle.NewUser(w.Truth[i], oracle.FollowSuggestions)
			if _, err := u.RunSession(sess); err != nil {
				return nil, err
			}
			base := w.Dirty[i].Clone()
			for _, rec := range mon.Log().TupleHistory(sess.ID) {
				if rec.Source == core.SourceUser {
					base.Set(rec.Attr, rec.New)
				}
			}
			if err := row.CerFix.Add(base, sess.Tuple, w.Truth[i]); err != nil {
				return nil, err
			}
			// Baseline path: heuristic CFD repair on the raw dirty
			// tuple.
			fixed, _ := rep.RepairTuple(w.Dirty[i])
			if err := row.Baseline.Add(w.Dirty[i], fixed, w.Truth[i]); err != nil {
				return nil, err
			}
		}
		row.BaselineBroken = row.Baseline.BrokenCells
		rows = append(rows, row)
	}
	return rows, nil
}

// E4HospFDsDSL is the variable-CFD (FD) knowledge base for the HOSP
// table-level baseline: the true functional structure of the data.
const E4HospFDsDSL = `
f1: prov -> hospital, addr, county
f2: zip -> city, state
f3: phone -> zip
f4: mcode -> mname, condition
`

// RunE4Hosp compares table-level cleaning on HOSP: the heuristic
// repairer aligns each FD group on its plurality value (no master, no
// users), while CerFix runs oracle-driven sessions per tuple. The
// baseline can only be right when the plurality happens to be the
// truth — with noisy groups and singleton keys it both misses errors
// and overwrites correct cells.
func RunE4Hosp(noiseRates []float64, nProviders, nInputs int, seed uint64) ([]E4Row, error) {
	fds, err := cfd.ParseSet(E4HospFDsDSL)
	if err != nil {
		return nil, err
	}
	var rows []E4Row
	for _, rate := range noiseRates {
		g := dataset.NewHospGen(seed)
		w, err := g.GenerateWorkload(nProviders, nInputs, rate)
		if err != nil {
			return nil, err
		}
		eng, err := core.NewEngine(dataset.HospSchema(), dataset.HospRules(), w.Store)
		if err != nil {
			return nil, err
		}
		mon := monitor.New(eng, nil)
		row := E4Row{NoiseRate: rate}
		// Baseline: repair the whole dirty table at once, on copies.
		fixed := make([]*schema.Tuple, len(w.Dirty))
		for i, d := range w.Dirty {
			fixed[i] = d.Clone()
		}
		cfd.NewRepairer(fds).RepairTable(fixed)
		for i := range fixed {
			if err := row.Baseline.Add(w.Dirty[i], fixed[i], w.Truth[i]); err != nil {
				return nil, err
			}
		}
		// CerFix: per-tuple sessions.
		for i := range w.Dirty {
			sess, err := mon.NewSession(w.Dirty[i])
			if err != nil {
				return nil, err
			}
			u := oracle.NewUser(w.Truth[i], oracle.FollowSuggestions)
			if _, err := u.RunSession(sess); err != nil {
				return nil, err
			}
			base := w.Dirty[i].Clone()
			for _, rec := range mon.Log().TupleHistory(sess.ID) {
				if rec.Source == core.SourceUser {
					base.Set(rec.Attr, rec.New)
				}
			}
			if err := row.CerFix.Add(base, sess.Tuple, w.Truth[i]); err != nil {
				return nil, err
			}
		}
		row.BaselineBroken = row.Baseline.BrokenCells
		rows = append(rows, row)
	}
	return rows, nil
}

// --- E5: scalability ---------------------------------------------------------

// E5MasterRow is one master-size measurement across the two lookup
// access paths (the master manager's ablation): the precomputed
// unique-RHS rule index (O(1) per probe) and full scans (O(|master|)).
type E5MasterRow struct {
	MasterSize int
	// RuleIdxNsPerFix and ScanNsPerFix are mean wall times per
	// non-interactive certain-fix pass.
	RuleIdxNsPerFix, ScanNsPerFix float64
	// ScanMeasured reports whether the scan ablation ran at this size
	// (it is skipped at large sizes to keep runs bounded).
	ScanMeasured bool
}

// RunE5Master measures fix latency vs master size across access paths.
func RunE5Master(sizes []int, nInputs int, scanLimit int, seed uint64) ([]E5MasterRow, error) {
	var rows []E5MasterRow
	for _, size := range sizes {
		g := dataset.NewCustomerGen(seed)
		w, err := g.GenerateWorkload(size, nInputs, 0.3, nil)
		if err != nil {
			return nil, err
		}
		eng, err := core.NewEngine(dataset.CustSchema(), dataset.DemoRules(), w.Store)
		if err != nil {
			return nil, err
		}
		seedSet := schema.SetOfNames(dataset.CustSchema(), "zip", "phn", "type", "item")
		row := E5MasterRow{MasterSize: size}
		w.Store.SetMode(master.ModeRuleIndex)
		row.RuleIdxNsPerFix = timeFixes(eng, w.Dirty, seedSet)
		if size <= scanLimit {
			w.Store.SetMode(master.ModeScan)
			row.ScanNsPerFix = timeFixes(eng, w.Dirty, seedSet)
			row.ScanMeasured = true
		}
		w.Store.SetMode(master.ModeRuleIndex)
		rows = append(rows, row)
	}
	return rows, nil
}

func timeFixes(eng *core.Engine, inputs []*schema.Tuple, seed schema.AttrSet) float64 {
	start := time.Now()
	for _, t := range inputs {
		eng.Chase(t, seed)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(len(inputs))
}

// E5RulesRow is one rule-count measurement.
type E5RulesRow struct {
	Rules       int
	NsPerFix    float64
	MasterSize  int
	InputTuples int
}

// RunE5Rules measures fix latency vs rule-set size: the demo rules are
// replicated with fresh IDs (semantically idempotent copies), so the
// chase scans proportionally more rules per round.
func RunE5Rules(multipliers []int, masterSize, nInputs int, seed uint64) ([]E5RulesRow, error) {
	var rows []E5RulesRow
	for _, mult := range multipliers {
		g := dataset.NewCustomerGen(seed)
		w, err := g.GenerateWorkload(masterSize, nInputs, 0.3, nil)
		if err != nil {
			return nil, err
		}
		rs, err := replicateRules(dataset.DemoRules(), mult)
		if err != nil {
			return nil, err
		}
		eng, err := core.NewEngine(dataset.CustSchema(), rs, w.Store)
		if err != nil {
			return nil, err
		}
		seedSet := schema.SetOfNames(dataset.CustSchema(), "zip", "phn", "type", "item")
		rows = append(rows, E5RulesRow{
			Rules:       rs.Len(),
			NsPerFix:    timeFixes(eng, w.Dirty, seedSet),
			MasterSize:  masterSize,
			InputTuples: nInputs,
		})
	}
	return rows, nil
}

func replicateRules(base *rule.Set, mult int) (*rule.Set, error) {
	out, err := rule.NewSet()
	if err != nil {
		return nil, err
	}
	for copyIdx := 0; copyIdx < mult; copyIdx++ {
		for _, r := range base.Rules() {
			cp := r.Clone()
			if copyIdx > 0 {
				cp.ID = fmt.Sprintf("%s_c%d", r.ID, copyIdx)
			}
			if err := out.Add(cp); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// --- E6: user effort -----------------------------------------------------------

// E6Row is one noise-rate effort measurement.
type E6Row struct {
	NoiseRate float64
	// AvgValidated is mean user-validated attributes per tuple.
	AvgValidated float64
	// AvgRounds is mean interaction rounds per tuple.
	AvgRounds float64
	// UserFraction is user-validated cells over all cells.
	UserFraction float64
	// AutoRewriteShare is the fraction of auto-validated cells that
	// were rewrites (grows with noise; confirmations shrink).
	AutoRewriteShare float64
}

// RunE6 sweeps noise rates and measures user effort with the
// suggestion-following oracle.
func RunE6(noiseRates []float64, nEntities, nInputs int, seed uint64) ([]E6Row, error) {
	var rows []E6Row
	for _, rate := range noiseRates {
		g := dataset.NewCustomerGen(seed)
		w, err := g.GenerateWorkload(nEntities, nInputs, rate, nil)
		if err != nil {
			return nil, err
		}
		eng, err := core.NewEngine(dataset.CustSchema(), dataset.DemoRules(), w.Store)
		if err != nil {
			return nil, err
		}
		mon := monitor.New(eng, nil)
		var eff metrics.Effort
		for i := range w.Dirty {
			sess, err := mon.NewSession(w.Dirty[i])
			if err != nil {
				return nil, err
			}
			u := oracle.NewUser(w.Truth[i], oracle.FollowSuggestions)
			rounds, err := u.RunSession(sess)
			if err != nil {
				return nil, err
			}
			sum := sess.Summary()
			eff.Observe(sum.UserValidated, rounds, dataset.CustSchema().Len())
		}
		overall := mon.Log().Overall()
		row := E6Row{
			NoiseRate:    rate,
			AvgValidated: eff.AvgValidated(),
			AvgRounds:    eff.AvgRounds(),
			UserFraction: eff.ValidatedFraction(),
		}
		if auto := overall.AutoFixed + overall.AutoConfirmed; auto > 0 {
			row.AutoRewriteShare = float64(overall.AutoFixed) / float64(auto)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// --- E7: region finder cost & quality ---------------------------------------

// E7Row is one configuration measurement.
type E7Row struct {
	// Attrs is the input schema width (2m for the pairs(m) config).
	Attrs int
	// ExactNs and GreedyNs are TopK wall times.
	ExactNs, GreedyNs int64
	// ExactBestSize and GreedyBestSize are the best region sizes.
	ExactBestSize, GreedyBestSize int
	// ExactRegions counts regions found by the exact search.
	ExactRegions int
}

// RunE7 measures the region finder on the pairs(m) family: 2m
// attributes s_i/t_i with rules s_i→t_i and t_i→s_i. Every minimal
// region picks one attribute per pair (size m), so the exact
// subset-lattice search must enumerate up to C(2m, m) candidates while
// greedy stays polynomial.
func RunE7(pairCounts []int, seed uint64) ([]E7Row, error) {
	var rows []E7Row
	for _, m := range pairCounts {
		eng, err := PairsEngine(m, seed)
		if err != nil {
			return nil, err
		}
		finder := region.NewFinder(eng)
		start := time.Now()
		exact := finder.TopK(&region.Options{MaxRegionsPerCell: 2})
		exactNs := time.Since(start).Nanoseconds()
		start = time.Now()
		greedy := finder.TopK(&region.Options{Greedy: true})
		greedyNs := time.Since(start).Nanoseconds()
		row := E7Row{Attrs: 2 * m, ExactNs: exactNs, GreedyNs: greedyNs, ExactRegions: len(exact)}
		if len(exact) > 0 {
			row.ExactBestSize = exact[0].Size()
		}
		if len(greedy) > 0 {
			row.GreedyBestSize = greedy[0].Size()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PairsEngine builds the pairs(m) configuration with a small master
// relation providing coverage (exported for the root benchmarks).
func PairsEngine(m int, seed uint64) (*core.Engine, error) {
	attrs := make([]schema.Attribute, 0, 2*m)
	for i := 0; i < m; i++ {
		attrs = append(attrs, schema.Str(fmt.Sprintf("s%d", i)), schema.Str(fmt.Sprintf("t%d", i)))
	}
	input, err := schema.New("PAIRS", attrs...)
	if err != nil {
		return nil, err
	}
	rs, err := rule.NewSet()
	if err != nil {
		return nil, err
	}
	for i := 0; i < m; i++ {
		fwd, err := rule.Parse(fmt.Sprintf("f%d: match s%d~s%d set t%d := t%d", i, i, i, i, i))
		if err != nil {
			return nil, err
		}
		bwd, err := rule.Parse(fmt.Sprintf("b%d: match t%d~t%d set s%d := s%d", i, i, i, i, i))
		if err != nil {
			return nil, err
		}
		if err := rs.Add(fwd); err != nil {
			return nil, err
		}
		if err := rs.Add(bwd); err != nil {
			return nil, err
		}
	}
	st := master.New(input)
	// A handful of master rows; values unique per row and column.
	for r := 0; r < 4; r++ {
		vals := make([]value.V, 2*m)
		for i := range vals {
			vals[i] = value.V(fmt.Sprintf("v%d-%d", r, i))
		}
		if _, err := st.InsertValues(vals...); err != nil {
			return nil, err
		}
	}
	return core.NewEngine(input, rs, st)
}
