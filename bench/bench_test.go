package main

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
	"time"
)

// tiny shrinks a workload to about a second of load on a small master.
func tiny(t *testing.T, name string, traced bool) config {
	t.Helper()
	cfg, err := workloadConfig(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg.seed, cfg.traced = 7, traced
	cfg.warmup, cfg.window, cfg.setups, cfg.pool = 200*time.Millisecond, time.Second, 2, 997
	switch name {
	case "entry":
		cfg.entities, cfg.sample = 40, 20
	case "bulk_fix":
		cfg.entities, cfg.batch, cfg.sample = 300, 32, 4
	case "jobs":
		cfg.entities, cfg.jobTuples, cfg.sample = 300, 500, 1
	case "churn":
		cfg.entities, cfg.writeEvery, cfg.sample = 30, 300*time.Millisecond, 12
	}
	return cfg
}

// printed lists, per workload, the metrics a run prints by name with
// their units: the end-to-end ones, and with tracing the per-layer ones
// beyond those BENCHMARK.json puts in the result line.
var printed = map[string][]string{
	"entry": {"setup_s s", "round_p50_ms ms", "round_p99_ms ms", "sessions_per_s 1/s",
		"user_attrs_per_session count", "rss_peak_mb MB", "error_rate ratio"},
	"bulk_fix": {"setup_s s", "fix_p50_ms ms", "fix_p99_ms ms", "fix_tuples_per_s 1/s", "rss_peak_mb MB", "error_rate ratio"},
	"jobs":     {"setup_s s", "job_p50_s s", "job_tuples_per_s 1/s", "rss_peak_mb MB", "error_rate ratio"},
	"churn": {"setup_s s", "round_p50_ms ms", "round_p99_ms ms", "sessions_per_s 1/s", "fix_p50_ms ms",
		"fix_p99_ms ms", "fix_tuples_per_s 1/s", "write_visible_p50_ms ms", "rss_peak_mb MB", "error_rate ratio"},
}

var printedTraced = map[string][]string{
	"entry": {"region.topk_s s", "region.tableau_rows count", "region.covers_ns ns", "monitor.new_session_us us",
		"monitor.validate_us us", "monitor.suggestion_us us", "monitor.rounds_per_session count",
		"audit.records_end count", "server.session_handle_us us", "server.lock_probe_p99_ms ms",
		"server.fix_handle_us us", "pipeline.source_ns_per_tuple ns"},
	"bulk_fix": {"server.fix_handle_us us", "pipeline.source_ns_per_tuple ns"},
	"jobs": {"server.job_submit_ms ms", "jobs.submit_ms ms", "jobs.queue_wait_ms ms", "jobs.run_ms ms",
		"jobs.results_fetch_ms ms", "jobs.artifact_bytes_per_tuple B", "faultfs.syncs_per_job count",
		"faultfs.sync_ms_per_job ms", "faultfs.write_amplification ratio", "pipeline.jsonl_scan_mb_per_s MB/s"},
	"churn": {"cerfix.add_master_row_us us", "master.cow_copied_bytes B", "gen.write_late_p50_ms ms",
		"server.lock_probe_p99_ms ms", "region.topk_s s"},
}

// TestWorkloads runs every workload untraced and traced at tiny sizes:
// every check must pass, the result line must carry every metric of
// BENCHMARK.json, and every metric must be printed with its unit.
func TestWorkloads(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	e, err := prepare(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := tiny(t, name, traced)
			var out bytes.Buffer
			res, rep, err := run(ctx, e, cfg, &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", name, traced, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v failed=%d attempted=%d\n%s",
					name, traced, res.Correct, res.Failed, res.Attempted, out.String())
			}
			want := e.spec.EndToEnd
			if traced {
				want = e.spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: result has %d metrics, BENCHMARK.json lists %d", name, traced, len(res.Metrics), len(want))
			}
			expect := printed[name]
			if traced {
				expect = append(append([]string(nil), expect...), printedTraced[name]...)
			}
			for _, nu := range expect {
				n, unit, _ := strings.Cut(nu, " ")
				found := false
				for _, l := range rep.lines {
					if l.name == n {
						found = l.unit == unit
					}
				}
				if !found || !strings.Contains(out.String(), n) {
					t.Errorf("%s traced=%v: %s not printed in %s", name, traced, n, unit)
				}
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{2, 4}, 1.5, 3, 4.5},
	} {
		q1, m, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(m-c.m) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}
