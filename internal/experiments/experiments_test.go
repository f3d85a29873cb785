package experiments

import (
	"strings"
	"testing"
)

func TestRunE1(t *testing.T) {
	res, err := RunE1()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent {
		t.Fatal("E1: demo rules inconsistent")
	}
	if res.Errors != 0 {
		t.Fatalf("E1: errors = %d", res.Errors)
	}
	if res.Rules != 9 {
		t.Fatalf("E1: rules = %d", res.Rules)
	}
	if res.ProbesRun == 0 {
		t.Fatal("E1: no probes")
	}
}

func TestRunE2ReproducesFig3(t *testing.T) {
	res, err := RunE2()
	if err != nil {
		t.Fatal(err)
	}
	// "After two rounds of interactions, all the attributes are
	// validated" (paper §3).
	if len(res.Rounds) != 2 {
		t.Fatalf("E2: rounds = %d, want 2", len(res.Rounds))
	}
	if !res.Certain || !res.MatchesGroundTruth {
		t.Fatalf("E2: certain=%v truth=%v", res.Certain, res.MatchesGroundTruth)
	}
	// Round 1 fixed FN with the M.->Mark normalization.
	foundFN := false
	for _, f := range res.Rounds[0].Fixed {
		if strings.HasPrefix(f, "FN:M.->Mark") {
			foundFN = true
		}
	}
	if !foundFN {
		t.Fatalf("E2 round 1 fixes = %v", res.Rounds[0].Fixed)
	}
	// Round 1's next suggestion is zip (Fig. 3(b)).
	if strings.Join(res.Rounds[0].NextSuggestion, ",") != "zip" {
		t.Fatalf("E2 next suggestion = %v", res.Rounds[0].NextSuggestion)
	}
	// Round 2 ends the session.
	if len(res.Rounds[1].NextSuggestion) != 0 {
		t.Fatalf("E2 round 2 suggestion = %v", res.Rounds[1].NextSuggestion)
	}
}

func TestRunE3Shape(t *testing.T) {
	// Mobile-only stream: the Fig. 3 scenario at scale. The smallest
	// region {item, phn, type, zip} covers 4 of 9 attributes, so the
	// auto share is ≈ 5/9 and the rule-covered columns are 100% auto.
	res, err := RunE3(30, 60, 0.3, 1.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllCertain {
		t.Fatal("E3: some sessions not certain")
	}
	o := res.Overall
	if o.Total() == 0 {
		t.Fatal("E3: empty stats")
	}
	// The auto share is bounded by the rule coverage of the schema: the
	// mobile region covers 4 of 9 attributes, and noise on `type` can
	// push single tuples into larger regions. Require the auto share
	// stays in the structural band (~40–60%).
	if o.AutoPct() < 40 {
		t.Fatalf("E3 mobile: auto %.1f%% below structural band", o.AutoPct())
	}
	if len(res.PerAttr) == 0 {
		t.Fatal("E3: no per-attr stats")
	}
	// str and city are rule targets in every pattern cell and belong to
	// no suggested region of a mobile stream: 100% auto-validated —
	// the per-column Fig. 4 statistic at its extreme.
	for _, s := range res.PerAttr {
		switch s.Attr {
		case "str", "city":
			if s.UserValidated != 0 {
				t.Fatalf("E3: %s user-validated %d times", s.Attr, s.UserValidated)
			}
			if s.AutoPct() != 100 {
				t.Fatalf("E3: %s auto = %.1f%%", s.Attr, s.AutoPct())
			}
		}
	}
	if res.RewriteShare <= 0 {
		t.Fatal("E3: no rewrites despite noise")
	}
}

func TestRunE3MixedStream(t *testing.T) {
	// A 50/50 home/mobile mix needs bigger regions for home tuples
	// (FN/LN are underivable when type=1): user effort grows but all
	// fixes stay certain.
	res, err := RunE3(30, 60, 0.3, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllCertain {
		t.Fatal("E3 mixed: not all certain")
	}
	mobile, err := RunE3(30, 60, 0.3, 1.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Overall.UserPct() <= mobile.Overall.UserPct() {
		t.Fatalf("E3: mixed user%% %.1f <= mobile user%% %.1f",
			res.Overall.UserPct(), mobile.Overall.UserPct())
	}
}

func TestRunE4Shape(t *testing.T) {
	rows, err := RunE4([]float64{0.1, 0.4}, 20, 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("E4: rows = %d", len(rows))
	}
	for _, r := range rows {
		// The defining property: certain fixes have precision 1.0.
		if p := r.CerFix.Precision(); p != 1.0 {
			t.Fatalf("E4 noise %.1f: CerFix precision %v != 1.0", r.NoiseRate, p)
		}
		// And they fix everything (oracle supplies the region, rules
		// the rest).
		if rec := r.CerFix.Recall(); rec != 1.0 {
			t.Fatalf("E4 noise %.1f: CerFix recall %v != 1.0", r.NoiseRate, rec)
		}
		// The heuristic baseline is strictly worse on F1.
		if r.Baseline.F1() >= r.CerFix.F1() {
			t.Fatalf("E4 noise %.1f: baseline F1 %v >= CerFix %v",
				r.NoiseRate, r.Baseline.F1(), r.CerFix.F1())
		}
	}
	// At higher noise, the baseline breaks correct cells (Example 1's
	// failure materializes at scale).
	if rows[1].BaselineBroken == 0 {
		t.Fatal("E4: baseline broke no cells at 40% noise")
	}
}

func TestRunE5MasterShape(t *testing.T) {
	rows, err := RunE5Master([]int{100, 1000}, 20, 1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.RuleIdxNsPerFix <= 0 {
			t.Fatalf("bad timing: %+v", r)
		}
		if !r.ScanMeasured {
			t.Fatalf("scan skipped at %d", r.MasterSize)
		}
	}
	// Ordering at 1000 master rows: rule-index < scan.
	if rows[1].RuleIdxNsPerFix >= rows[1].ScanNsPerFix {
		t.Fatalf("rule index (%.0f ns) not faster than scan (%.0f ns)",
			rows[1].RuleIdxNsPerFix, rows[1].ScanNsPerFix)
	}
}

func TestRunE5RulesShape(t *testing.T) {
	rows, err := RunE5Rules([]int{1, 4}, 200, 20, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Rules != 9 || rows[1].Rules != 36 {
		t.Fatalf("rule counts = %d, %d", rows[0].Rules, rows[1].Rules)
	}
	if rows[0].NsPerFix <= 0 || rows[1].NsPerFix <= 0 {
		t.Fatal("bad timings")
	}
}

func TestRunE6Shape(t *testing.T) {
	rows, err := RunE6([]float64{0.1, 0.5}, 20, 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Effort is driven by region size: about 4-6 of 9 attributes.
		if r.AvgValidated < 3 || r.AvgValidated > 7 {
			t.Fatalf("E6 noise %.1f: AvgValidated = %v", r.NoiseRate, r.AvgValidated)
		}
		if r.AvgRounds < 1 || r.AvgRounds > 3 {
			t.Fatalf("E6 noise %.1f: AvgRounds = %v", r.NoiseRate, r.AvgRounds)
		}
		if r.UserFraction <= 0 || r.UserFraction >= 1 {
			t.Fatalf("E6: UserFraction = %v", r.UserFraction)
		}
	}
	// More noise → larger share of auto-validated cells are rewrites.
	if rows[1].AutoRewriteShare <= rows[0].AutoRewriteShare {
		t.Fatalf("E6: rewrite share did not grow with noise: %v vs %v",
			rows[0].AutoRewriteShare, rows[1].AutoRewriteShare)
	}
}

func TestRunE7Shape(t *testing.T) {
	rows, err := RunE7([]int{2, 4}, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		m := r.Attrs / 2
		// Minimal regions pick one attribute per pair.
		if r.ExactBestSize != m {
			t.Fatalf("E7 m=%d: exact best size = %d", m, r.ExactBestSize)
		}
		// Greedy covers but may be larger; never smaller than exact.
		if r.GreedyBestSize < r.ExactBestSize {
			t.Fatalf("E7 m=%d: greedy %d < exact %d", m, r.GreedyBestSize, r.ExactBestSize)
		}
		if r.ExactNs <= 0 || r.GreedyNs <= 0 {
			t.Fatal("bad timings")
		}
		if r.ExactRegions == 0 {
			t.Fatal("no exact regions")
		}
	}
}

func TestRunE3HospApproachesPaperSplit(t *testing.T) {
	res, err := RunE3Hosp(50, 80, 0.25, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllCertain {
		t.Fatal("E3-HOSP: not all certain")
	}
	o := res.Overall
	// The minimal HOSP region covers 3 of 11 attributes: the user share
	// is structurally 3/11 ≈ 27%, the closest our schemas come to the
	// paper's 20/80 headline.
	if o.UserPct() < 20 || o.UserPct() > 35 {
		t.Fatalf("E3-HOSP: user%% = %.1f, want ~27", o.UserPct())
	}
	if o.AutoPct() < 65 {
		t.Fatalf("E3-HOSP: auto%% = %.1f", o.AutoPct())
	}
}

func TestRunE3DblpSplit(t *testing.T) {
	res, err := RunE3Dblp(60, 80, 0.25, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllCertain {
		t.Fatal("E3-DBLP: not all certain")
	}
	o := res.Overall
	// The minimal DBLP region is {key} alone (the DBLP key determines
	// everything, then venue -> vfull chains): 1 of 6 attributes, a
	// structural floor of ~17%% user. Measured ~19%% — landing on the
	// paper's headline "20%% validated by users / 80%% fixed by
	// CerFix" almost exactly.
	if o.UserPct() < 15 || o.UserPct() > 28 {
		t.Fatalf("E3-DBLP: user%% = %.1f, want ~17-20", o.UserPct())
	}
	if o.AutoPct() < 72 {
		t.Fatalf("E3-DBLP: auto%% = %.1f", o.AutoPct())
	}
}

func TestRunE4HospShape(t *testing.T) {
	rows, err := RunE4Hosp([]float64{0.25}, 25, 60, 11)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.CerFix.Precision() != 1.0 || r.CerFix.Recall() != 1.0 {
		t.Fatalf("CerFix P/R = %v/%v", r.CerFix.Precision(), r.CerFix.Recall())
	}
	if r.Baseline.F1() >= r.CerFix.F1() {
		t.Fatalf("baseline F1 %v >= CerFix", r.Baseline.F1())
	}
	// Plurality alignment recovers *some* errors (duplicated groups)
	// but stays well below CerFix recall.
	if r.Baseline.Recall() >= 0.9 {
		t.Fatalf("baseline recall suspiciously high: %v", r.Baseline.Recall())
	}
}
