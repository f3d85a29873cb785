// Command cerfixbench regenerates every table/figure of the CerFix
// reproduction as aligned text tables. Experiments:
//
//	e1 — Fig. 2: rule-set consistency analysis
//	e2 — Fig. 3: monitor interaction walkthrough
//	e3 — Fig. 4: auditing statistics (user% vs auto%)
//	e4 — accuracy vs noise: certain fixes vs CFD heuristic repair
//	e5 — scalability: fix latency vs master size and vs #rules
//	e6 — user effort vs noise
//	e7 — region finder: exact vs greedy cost and quality
//
// Run all with -exp all (default), or a comma-separated subset:
//
//	cerfixbench -exp e3,e4 -tuples 500 -noise 0.3
//
// The per-mechanism experiments e8–e13 are retired; their last results
// stay in BENCH_e9.json … BENCH_e13.json as frozen history, and the
// daemon is measured end to end by the benchmark under bench/.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"cerfix/internal/experiments"
	"cerfix/internal/textutil"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiments to run (comma-separated: e1..e7, or all)")
		entities = flag.Int("entities", 200, "master entities for generated workloads")
		tuples   = flag.Int("tuples", 400, "input tuples per generated workload")
		noise    = flag.Float64("noise", 0.3, "cell noise rate for e3")
		seed     = flag.Uint64("seed", 1, "workload seed")
	)
	flag.Parse()

	rs := runners(*entities, *tuples, *noise, *seed)
	want, err := parseExp(*exp, runnerNames(rs))
	if err != nil {
		fmt.Fprintf(os.Stderr, "cerfixbench: %v\n", err)
		os.Exit(2)
	}
	if err := run(os.Stdout, rs, want); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runner is one experiment: its -exp name and the function printing
// its tables to w.
type runner struct {
	name string
	fn   func(w io.Writer) error
}

// runners lists E1–E7 in output order under the given workload
// parameters.
func runners(entities, tuples int, noise float64, seed uint64) []runner {
	return []runner{
		{"e1", runE1},
		{"e2", runE2},
		{"e3", func(w io.Writer) error { return runE3(w, entities, tuples, noise, seed) }},
		{"e4", func(w io.Writer) error { return runE4(w, entities, tuples, seed) }},
		{"e5", func(w io.Writer) error { return runE5(w, tuples, seed) }},
		{"e6", func(w io.Writer) error { return runE6(w, entities, tuples, seed) }},
		{"e7", func(w io.Writer) error { return runE7(w, seed) }},
	}
}

func runnerNames(rs []runner) []string {
	names := make([]string, len(rs))
	for i, r := range rs {
		names[i] = r.name
	}
	return names
}

// run prints every selected experiment to w, each under a banner and
// followed by a blank line. The first failure stops the run; its error
// names the experiment.
func run(w io.Writer, rs []runner, want map[string]bool) error {
	for _, r := range rs {
		if !want[r.name] {
			continue
		}
		fmt.Fprintf(w, "=== %s ===\n", strings.ToUpper(r.name))
		if err := r.fn(w); err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// parseExp turns the -exp spec into the set of experiments to run.
// "all" selects every name in valid; any other unknown name is an
// error listing the valid ones.
func parseExp(spec string, valid []string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, e := range strings.Split(spec, ",") {
		e = strings.TrimSpace(strings.ToLower(e))
		if e == "all" {
			for _, v := range valid {
				want[v] = true
			}
			continue
		}
		if !slices.Contains(valid, e) {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s, all)", e, strings.Join(valid, ", "))
		}
		want[e] = true
	}
	return want, nil
}

func runE1(w io.Writer) error {
	res, err := experiments.RunE1()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Fig. 2 — editing-rule management: consistency of φ1–φ9 w.r.t. the demo master data")
	tbl := textutil.NewTextTable("rules", "consistent", "errors", "warnings", "CR probes", "elapsed")
	tbl.AddRowf(res.Rules, res.Consistent, res.Errors, res.Warnings, res.ProbesRun, res.Elapsed.String())
	fmt.Fprint(w, tbl.String())
	fmt.Fprintln(w, "(cross-entity warnings are expected: they require contradictory user assertions)")
	return nil
}

func runE2(w io.Writer) error {
	res, err := experiments.RunE2()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Fig. 3 — data monitor walkthrough (input: the M./Mark tuple; user validates AC, phn, type, item first)")
	tbl := textutil.NewTextTable("round", "user validates", "CerFix fixes/confirms", "next suggestion")
	for i, r := range res.Rounds {
		tbl.AddRow(fmt.Sprint(i+1),
			strings.Join(r.Validated, ", "),
			strings.Join(r.Fixed, ", "),
			strings.Join(r.NextSuggestion, ", "))
	}
	fmt.Fprint(w, tbl.String())
	fmt.Fprintf(w, "certain fix: %v; matches ground truth: %v; rounds: %d (paper: \"after two rounds of interactions\")\n",
		res.Certain, res.MatchesGroundTruth, len(res.Rounds))
	return nil
}

func runE3(w io.Writer, entities, tuples int, noise float64, seed uint64) error {
	fmt.Fprintf(w, "Fig. 4 — auditing statistics (%d tuples, %.0f%% cell noise)\n", tuples, noise*100)
	for _, mix := range []struct {
		name  string
		share float64
	}{{"mobile-only stream (the Fig. 3 scenario at scale)", 1.0}, {"50/50 home/mobile stream", 0.5}} {
		res, err := experiments.RunE3(entities, tuples, noise, mix.share, seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "-- %s --\n", mix.name)
		tbl := textutil.NewTextTable("attr", "user", "auto-fixed", "auto-confirmed", "user%", "auto%")
		for _, s := range res.PerAttr {
			tbl.AddRowf(s.Attr, s.UserValidated, s.AutoFixed, s.AutoConfirmed, s.UserPct(), s.AutoPct())
		}
		o := res.Overall
		tbl.AddRowf("OVERALL", o.UserValidated, o.AutoFixed, o.AutoConfirmed, o.UserPct(), o.AutoPct())
		fmt.Fprint(w, tbl.String())
		fmt.Fprintf(w, "all sessions certain: %v; rewrite share of auto cells: %.1f%%\n",
			res.AllCertain, res.RewriteShare*100)
	}
	// HOSP: richer rule coverage brings the split near the paper's
	// headline number.
	res, err := experiments.RunE3Hosp(entities, tuples, noise, seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "-- HOSP stream (11-attribute schema, region covers 3) --")
	tbl := textutil.NewTextTable("attr", "user", "auto-fixed", "auto-confirmed", "user%", "auto%")
	for _, s := range res.PerAttr {
		tbl.AddRowf(s.Attr, s.UserValidated, s.AutoFixed, s.AutoConfirmed, s.UserPct(), s.AutoPct())
	}
	o := res.Overall
	tbl.AddRowf("OVERALL", o.UserValidated, o.AutoFixed, o.AutoConfirmed, o.UserPct(), o.AutoPct())
	fmt.Fprint(w, tbl.String())
	fmt.Fprintf(w, "all sessions certain: %v\n", res.AllCertain)
	// DBLP: the key-determined schema reproduces the paper's headline
	// split.
	dblp, err := experiments.RunE3Dblp(entities, tuples, noise, seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "-- DBLP stream (6-attribute schema, region = {key}) --")
	tbl2 := textutil.NewTextTable("attr", "user", "auto-fixed", "auto-confirmed", "user%", "auto%")
	for _, s := range dblp.PerAttr {
		tbl2.AddRowf(s.Attr, s.UserValidated, s.AutoFixed, s.AutoConfirmed, s.UserPct(), s.AutoPct())
	}
	od := dblp.Overall
	tbl2.AddRowf("OVERALL", od.UserValidated, od.AutoFixed, od.AutoConfirmed, od.UserPct(), od.AutoPct())
	fmt.Fprint(w, tbl2.String())
	fmt.Fprintf(w, "all sessions certain: %v\n", dblp.AllCertain)
	fmt.Fprintln(w, "(paper claim: ~20% user / ~80% auto on average; DBLP reproduces it at ~19/81)")
	return nil
}

func runE4(w io.Writer, entities, tuples int, seed uint64) error {
	rates := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	rows, err := experiments.RunE4(rates, entities, tuples, seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Accuracy vs noise — CerFix certain fixes vs CFD cost-based heuristic repair (Example 1 at scale)")
	tbl := textutil.NewTextTable("noise", "CerFix P", "CerFix R", "CerFix F1",
		"CFD P", "CFD R", "CFD F1", "CFD broke cells")
	for _, r := range rows {
		tbl.AddRowf(r.NoiseRate,
			r.CerFix.Precision(), r.CerFix.Recall(), r.CerFix.F1(),
			r.Baseline.Precision(), r.Baseline.Recall(), r.Baseline.F1(),
			r.BaselineBroken)
	}
	fmt.Fprint(w, tbl.String())
	fmt.Fprintln(w, "(CerFix precision is 1.0 by construction; the heuristic overwrites correct cells)")

	hrows, err := experiments.RunE4Hosp(rates, entities/2, tuples/2, seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\nHOSP table-level variant — plurality FD repair vs CerFix sessions")
	htbl := textutil.NewTextTable("noise", "CerFix P", "CerFix R", "FD P", "FD R", "FD F1", "FD broke cells")
	for _, r := range hrows {
		htbl.AddRowf(r.NoiseRate,
			r.CerFix.Precision(), r.CerFix.Recall(),
			r.Baseline.Precision(), r.Baseline.Recall(), r.Baseline.F1(),
			r.BaselineBroken)
	}
	fmt.Fprint(w, htbl.String())
	return nil
}

func runE5(w io.Writer, tuples int, seed uint64) error {
	fmt.Fprintln(w, "Scalability (a): certain-fix latency vs master size (access-path ablation)")
	sizes := []int{1000, 5000, 20000, 50000}
	rows, err := experiments.RunE5Master(sizes, tuples/4, 5000, seed)
	if err != nil {
		return err
	}
	tbl := textutil.NewTextTable("master tuples", "rule-index µs/fix", "scan µs/fix")
	for _, r := range rows {
		scan := "skipped"
		if r.ScanMeasured {
			scan = fmt.Sprintf("%.1f", r.ScanNsPerFix/1000)
		}
		tbl.AddRow(fmt.Sprint(r.MasterSize),
			fmt.Sprintf("%.1f", r.RuleIdxNsPerFix/1000), scan)
	}
	fmt.Fprint(w, tbl.String())
	fmt.Fprintln(w, "(rule-index = precomputed unique-RHS maps, O(1)/probe)")

	fmt.Fprintln(w, "\nScalability (b): certain-fix latency vs number of rules (demo rules replicated)")
	rrows, err := experiments.RunE5Rules([]int{1, 2, 4, 8}, 2000, tuples/4, seed)
	if err != nil {
		return err
	}
	tbl2 := textutil.NewTextTable("rules", "µs/fix")
	for _, r := range rrows {
		tbl2.AddRow(fmt.Sprint(r.Rules), fmt.Sprintf("%.1f", r.NsPerFix/1000))
	}
	fmt.Fprint(w, tbl2.String())
	return nil
}

func runE6(w io.Writer, entities, tuples int, seed uint64) error {
	rates := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	rows, err := experiments.RunE6(rates, entities, tuples, seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "User effort vs noise (oracle follows suggestions; 9-attribute schema)")
	tbl := textutil.NewTextTable("noise", "avg attrs validated", "avg rounds", "user cell fraction", "auto-rewrite share")
	for _, r := range rows {
		tbl.AddRowf(r.NoiseRate, r.AvgValidated, r.AvgRounds, r.UserFraction, r.AutoRewriteShare)
	}
	fmt.Fprint(w, tbl.String())
	fmt.Fprintln(w, "(suggestions are value-independent: effort tracks region size; rewrites grow with noise)")
	return nil
}

func runE7(w io.Writer, seed uint64) error {
	rows, err := experiments.RunE7([]int{3, 4, 5, 6, 7}, seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Region finder — exact vs greedy on pairs(m): 2m attrs, minimal regions have size m")
	tbl := textutil.NewTextTable("attrs", "exact ms", "greedy ms", "exact best |Z|", "greedy best |Z|", "exact regions")
	for _, r := range rows {
		tbl.AddRowf(r.Attrs,
			float64(r.ExactNs)/1e6, float64(r.GreedyNs)/1e6,
			r.ExactBestSize, r.GreedyBestSize, r.ExactRegions)
	}
	fmt.Fprint(w, tbl.String())
	fmt.Fprintln(w, "(exact enumerates the subset lattice — exponential in m; greedy stays polynomial)")
	return nil
}
