// Command bench is the end-to-end benchmark of cerfixd. It builds the
// daemon from source, starts it as a child process on a generated
// instance, drives one closed-loop workload over loopback HTTP with at
// most two connections, checks every answer against the generated
// ground truth, and prints each metric by name and unit. The last line
// of standard output is one JSON object with the keys correct,
// attempted, failed and metrics; metrics holds the end_to_end metrics of
// BENCHMARK.json, or with -trace 1 its per_layer metrics.
//
//	bash bench/run.sh --workload entry --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --workload bulk_fix --seed 1 --repeat 10
//
// README.md describes the workloads, every metric and how to compare
// two commits.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runTimeout keeps one run inside the three minutes a caller allows it.
const runTimeout = 170 * time.Second

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "entry", "workload: "+strings.Join(workloads, ", "))
	seed := flag.Uint64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 15, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run: print per-layer metrics instead of end-to-end ones")
	repeat := flag.Int("repeat", 1, "run N times with seeds seed..seed+N-1 and print each metric's median, quartiles and spread")
	flag.Parse()

	cfg, err := workloadConfig(*workload)
	if err != nil {
		fatal(err)
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 || *repeat < 1 {
		fatal(fmt.Errorf("need -seconds >= 1, -trace 0 or 1, -repeat >= 1"))
	}
	cfg.seed, cfg.window, cfg.traced = *seed, time.Duration(*seconds)*time.Second, *trace == 1

	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(*repeat)*runTimeout)
	defer cancel()
	e, err := prepare(ctx)
	if err != nil {
		fatal(err)
	}
	var res result
	if *repeat > 1 {
		res, err = repeatRuns(ctx, e, cfg, *repeat, os.Stdout)
	} else {
		res, _, err = run(ctx, e, cfg, os.Stdout)
	}
	if err != nil {
		fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// run executes one run of cfg: generate, start the daemon (cfg.setups
// times, keeping the last), drive the workload, and for traced runs
// replay a sample of it in process. It prints the host stamp and every
// metric to w and returns the result line and the full report.
func run(ctx context.Context, e *env, cfg config, w io.Writer) (result, *report, error) {
	work, err := os.MkdirTemp(e.build, "run-"+cfg.name+"-")
	if err != nil {
		return result{}, nil, err
	}
	defer os.RemoveAll(work)
	in, err := generate(cfg)
	if err != nil {
		return result{}, nil, err
	}
	inst := filepath.Join(work, "instance")
	if err := writeInstance(inst, in); err != nil {
		return result{}, nil, err
	}
	tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}

	if cfg.traced {
		cfg.setups = 1
	}
	var (
		d       *daemon
		jobsDir string
		setup   []float64
	)
	for i := 0; i < cfg.setups; i++ {
		if d != nil {
			d.stop()
		}
		jobsDir = filepath.Join(work, fmt.Sprintf("jobs-%d", i))
		t0 := time.Now()
		d, err = startDaemon(e.daemon, inst, jobsDir, filepath.Join(work, fmt.Sprintf("cerfixd-%d.log", i)))
		if err != nil {
			return result{}, nil, err
		}
		if err := firstRequest(ctx, cfg, in, d, hc); err != nil {
			d.stop()
			return result{}, nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	defer d.stop()
	for _, s := range hostStamp(cfg, d, jobsDir) {
		fmt.Fprintln(w, "# "+s)
	}

	gen := &generator{cfg: cfg, in: in, hc: hc, base: d.base}
	busy0, steal0, err := hostCPU()
	if err != nil {
		return result{}, nil, err
	}
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return result{}, nil, err
	}
	tal := gen.run(ctx)
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return result{}, nil, err
	}
	busy1, steal1, err := hostCPU()
	if err != nil {
		return result{}, nil, err
	}
	rss, err := d.rssPeakMB()
	if err != nil {
		return result{}, nil, err
	}
	d.stop()
	span := time.Since(gen.t0).Seconds()
	fmt.Fprintf(w, "# load: cerfixd cpu %.2f s, host busy %.2f s, host steal %.2f s over %.1f s of warm-up and window on %d CPUs\n",
		cpu1-cpu0, busy1-busy0, steal1-steal0, span, runtime.NumCPU())

	rep := endToEnd(gen, tal, setup, rss)
	if cfg.traced {
		lt, err := layers(ctx, e, gen, tal, inst, work, rep)
		if err != nil {
			return result{}, nil, err
		}
		tal.attempted += lt.attempted
		tal.failed += lt.failed
		tal.errs = append(tal.errs, lt.errs...)
	}
	rep.print(w)
	for _, msg := range tal.errs {
		fmt.Fprintln(w, "# FAILED: "+msg)
	}

	list := e.spec.EndToEnd
	if cfg.traced {
		list = e.spec.PerLayer
	}
	res := result{
		Correct: tal.failed == 0, Attempted: tal.attempted, Failed: tal.failed,
		Metrics: map[string]metric{},
	}
	for _, m := range list {
		l, ok := rep.get(m.Name)
		if !ok {
			return result{}, nil, fmt.Errorf("metric %s of BENCHMARK.json was not measured", m.Name)
		}
		if l.unit != m.Unit {
			return result{}, nil, fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", m.Name, l.unit, m.Unit)
		}
		res.Metrics[m.Name] = metric{Value: l.value, Unit: l.unit}
	}
	if res.Attempted == 0 {
		return result{}, nil, fmt.Errorf("no operation completed in the run")
	}
	return res, rep, nil
}

// firstRequest ends one set-up: it waits until the daemon serves and,
// where the workload runs sessions, opens the first one, which forces
// the region precompute every later session relies on.
func firstRequest(ctx context.Context, cfg config, in *inputs, d *daemon, hc *http.Client) error {
	if err := d.waitReady(ctx, hc); err != nil {
		return err
	}
	if cfg.name != "entry" && cfg.name != "churn" {
		return nil
	}
	req, err := http.NewRequestWithContext(ctx, "POST", d.base+"/api/v1/sessions", bytes.NewReader(in.sessEnc[0]))
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	if err := drain(resp); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("first session open: status %d", resp.StatusCode)
	}
	return nil
}

// endToEnd computes the user-visible metrics of the measured window.
// Each workload prints its own metrics; latency_p50_ms and
// throughput_per_s then name the workload's headline pair so every
// workload reports the same end-to-end set (README.md has the mapping).
// Rates are medians of one-second slices of the window, so a burst of
// interference from outside the benchmark moves a few slices, not the
// result.
func endToEnd(d *generator, t tally, setup []float64, rss float64) *report {
	rep := &report{}
	_, med, _ := quartiles(setup)
	rep.add("setup_s", med, "s", fmt.Sprintf("median of %d daemon starts, exec to first request served", len(setup)))
	rounds := d.inWindow(append(append([]sample(nil), t.ops["POST /sessions"]...), t.ops["POST /sessions/{id}/validate"]...), false)
	sessions := d.inWindow(t.ops["session"], false)
	fixes := d.inWindow(t.ops["POST /fix"], false)
	var latency, throughput float64
	var latencyOf, throughputOf string
	switch d.cfg.name {
	case "entry", "churn":
		rep.timing("round", durs(rounds), "ms", ms)
		throughput, throughputOf = d.sliceRate(sessions, false), "sessions_per_s"
		rep.add("sessions_per_s", throughput, "1/s", fmt.Sprintf("median of one-second slices, n=%d sessions", len(sessions)))
		latency, latencyOf = ms(durs(rounds).median()), "round_p50_ms"
	}
	switch d.cfg.name {
	case "entry":
		asserted := 0
		for _, s := range sessions {
			asserted += s.n
		}
		if len(sessions) > 0 {
			rep.add("user_attrs_per_session", float64(asserted)/float64(len(sessions)), "count", "attributes the oracle asserted")
		}
	case "bulk_fix", "churn":
		rep.timing("fix", durs(fixes), "ms", ms)
		rate := d.sliceRate(fixes, true)
		rep.add("fix_tuples_per_s", rate, "1/s", fmt.Sprintf("median of one-second slices, n=%d requests", len(fixes)))
		if d.cfg.name == "bulk_fix" {
			latency, latencyOf = ms(durs(fixes).median()), "fix_p50_ms"
			throughput, throughputOf = rate, "fix_tuples_per_s"
		}
	case "jobs":
		// A job outlasts a slice, so its rate is per job: tuples over
		// submit-to-EOF time, the median over the window's jobs.
		jobs := d.inWindow(t.ops["job"], true)
		lat := durs(jobs)
		rep.timing("job", lat, "s", func(d time.Duration) float64 { return d.Seconds() })
		if len(jobs) > 0 {
			throughput = float64(d.cfg.jobTuples) / lat.median().Seconds()
			rep.add("job_tuples_per_s", throughput, "1/s", fmt.Sprintf("median over n=%d jobs of %d tuples", len(jobs), d.cfg.jobTuples))
		}
		latency, latencyOf, throughputOf = ms(lat.median()), "job_p50_s", "job_tuples_per_s"
	}
	if d.cfg.name == "churn" {
		wv := durs(d.inWindow(t.ops["write_visible"], true))
		rep.timing("write_visible", wv, "ms", ms)
		latency, latencyOf = ms(wv.median()), "write_visible_p50_ms"
	}
	rep.add("rss_peak_mb", rss, "MB", "VmHWM of cerfixd")
	rate := 0.0
	if t.attempted > 0 {
		rate = float64(t.failed) / float64(t.attempted)
	}
	rep.add("error_rate", rate, "ratio", fmt.Sprintf("%d failed of %d attempted", t.failed, t.attempted))
	if latency > 0 {
		rep.add("latency_p50_ms", latency, "ms", "= "+latencyOf)
	}
	if throughput > 0 {
		rep.add("throughput_per_s", throughput, "1/s", "= "+throughputOf)
	}
	return rep
}

// sliceRate buckets samples by the one-second slice of the window they
// ended in and returns the median slice's count (of tuples when
// weighted, else of samples).
func (d *generator) sliceRate(ss []sample, weighted bool) float64 {
	slices := make([]float64, max(int(d.cfg.window/time.Second), 1))
	for _, s := range ss {
		i := int((s.at + s.dur - d.cfg.warmup) / time.Second)
		if i < 0 || i >= len(slices) {
			continue
		}
		if weighted {
			slices[i] += float64(s.n)
		} else {
			slices[i]++
		}
	}
	_, med, _ := quartiles(slices)
	return med
}

// repeatRuns runs cfg n times on consecutive seeds and prints, for each
// metric of the result line, its median, quartiles and spread (the
// quartile distance over the median), flagging every end-to-end metric
// whose spread exceeds its BENCHMARK.json bound. Its result line holds
// the medians.
func repeatRuns(ctx context.Context, e *env, cfg config, n int, w io.Writer) (result, error) {
	vals := map[string][]float64{}
	units := map[string]string{}
	total := result{Correct: true, Metrics: map[string]metric{}}
	for i := 0; i < n; i++ {
		c := cfg
		c.seed = cfg.seed + uint64(i)
		fmt.Fprintf(w, "## run %d/%d seed %d\n", i+1, n, c.seed)
		res, _, err := run(ctx, e, c, w)
		if err != nil {
			return result{}, err
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, m := range res.Metrics {
			vals[k] = append(vals[k], m.Value)
			units[k] = m.Unit
		}
	}
	bounds := map[string]float64{}
	for _, m := range e.spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	names := make([]string, 0, len(vals))
	for k := range vals {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "## %s over %d seeds from %d\n", cfg.name, n, cfg.seed)
	fmt.Fprintf(w, "%-36s %12s %12s %12s %8s %8s\n", "metric", "q1", "median", "q3", "spread", "bound")
	for _, k := range names {
		q1, med, q3 := quartiles(vals[k])
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
			if spread < 0 {
				spread = -spread
			}
		}
		b, flag := "", ""
		if bound, ok := bounds[k]; ok {
			b = fmt.Sprintf("%.3f", bound)
			if spread > bound {
				flag = "  SPREAD EXCEEDS BOUND"
			}
		}
		fmt.Fprintf(w, "%-36s %12.5g %12.5g %12.5g %8.3f %8s%s\n", k, q1, med, q3, spread, b, flag)
		total.Metrics[k] = metric{Value: med, Unit: units[k]}
	}
	return total, nil
}
