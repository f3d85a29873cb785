// Command cerfixd serves the CerFix web interface (data explorer) as a
// JSON API over HTTP — the reproduction of the demo's rule manager,
// data monitor and auditing views (paper Figs. 2–4). Start it against
// your own configuration:
//
//	cerfixd -addr :8080 \
//	  -input "CUST:FN,LN,AC,phn,type,str,city,zip,item" \
//	  -master-schema "PERSON:FN,LN,AC,Hphn,Mphn,str,city,zip,DOB,gender" \
//	  -rules rules.txt -master master.csv
//
// or with the built-in paper demo configuration:
//
//	cerfixd -addr :8080 -demo
//
// or from a saved instance directory (System.Save layout; any
// wal.jsonl is replayed on top of the checkpoint and the load
// provenance — directory, backup fallback, WAL rows — is reported
// under "persistence" on GET /api/v1/status):
//
//	cerfixd -addr :8080 -load ./instance
//
// With -jobs-dir the daemon additionally serves the persistent async
// batch-repair queue (/api/v1/jobs, see internal/jobs): submitted jobs
// are journaled to that directory, run off the request path against
// O(1) copy-on-write engine snapshots, and are recovered — re-queued
// and completed — if the daemon restarts mid-queue or mid-run.
// -jobs-workers runs several jobs concurrently (fair FIFO admission);
// snapshots are free, so extra runners cost only the CPU they use. On shutdown the -drain
// window covers both in-flight HTTP requests and the running job;
// work that does not finish in time is re-queued for the next start.
// Submissions referencing server-side files (input_path) are only
// accepted under -jobs-input-root; without it, clients must upload
// tuples inline.
//
// The production front door (see docs/API.md) is configured with:
// -rate/-burst enable per-key token-bucket rate limiting (key =
// X-Api-Key, else client IP); -max-sync-fix caps concurrent
// synchronous POST /fix runs; -max-queued-jobs bounds the persistent
// backlog. Past any limit, requests shed with a 429 envelope and a
// computed Retry-After instead of queueing. -access-log emits one
// structured line per request.
//
// Runtime guardrails (see internal/guard): -request-timeout bounds
// every non-streaming request (504 deadline_exceeded on expiry);
// -max-body caps request bodies (413 body_too_large); -job-timeout
// gives each job run a wall-clock budget (terminal failure on expiry);
// -stall-timeout arms the stuck-job watchdog (a run making no tuple
// progress is cancelled and re-queued with bounded attempts); and
// -mem-soft/-mem-hard are heap watermarks, checked against a fresh heap
// sample at each job submission, past which submissions shed with 429
// memory_pressure and 503 memory_degraded respectively, with
// hysteresis. Runner panics never kill the daemon: they fail the
// job with the goroutine stack journaled to its record.
//
// Endpoints are mounted under /api/v1 only (the bare /api prefix
// answers 404): see docs/API.md and internal/server (GET
// /api/v1/status, /rules, /regions, /master, /sessions, /audit/...,
// /fix, /jobs).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cerfix"
	"cerfix/internal/dataset"
	"cerfix/internal/faultfs"
	"cerfix/internal/guard"
	"cerfix/internal/jobs"
	"cerfix/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		demo        = flag.Bool("demo", false, "serve the built-in paper demo configuration")
		loadDir     = flag.String("load", "", "load a saved instance directory (System.Save layout: manifest.json, rules.txt, master.csv, optional wal.jsonl; provenance on /api/v1/status)")
		inputSpec   = flag.String("input", "", `input schema spec "NAME:attr1,..."`)
		masterSpec  = flag.String("master-schema", "", `master schema spec "NAME:attr1,..."`)
		rulesPath   = flag.String("rules", "", "editing-rule DSL file")
		masterPath  = flag.String("master", "", "master data CSV file")
		drain       = flag.Duration("drain", 30*time.Second, "shutdown drain timeout for in-flight requests and running jobs")
		jobsDir     = flag.String("jobs-dir", "", "directory for the persistent async batch-repair job queue (empty = /api/v1/jobs disabled)")
		jobsInput   = flag.String("jobs-input-root", "", "directory server-side job input paths may reference (empty = inline tuples only)")
		jobsWorkers = flag.Int("jobs-workers", 1, "concurrent job runners (fair FIFO admission; each run uses its own O(1) engine snapshot)")
		probeEvery  = flag.Duration("persist-probe", 3*time.Second, "min interval between persistence health probes while degraded (with -jobs-dir; submissions shed 503 persistence_degraded until a probe succeeds)")
		rate        = flag.Float64("rate", 0, "per-key admission rate in requests/second (0 = rate limiting off)")
		burst       = flag.Int("burst", 0, "per-key token-bucket burst capacity (with -rate; min 1)")
		maxSyncFix  = flag.Int("max-sync-fix", 0, "max concurrent synchronous /fix runs; excess sheds 429 (0 = unlimited)")
		maxQueued   = flag.Int("max-queued-jobs", 0, "max queued jobs in the persistent backlog; excess sheds 429 (0 = unbounded)")
		accessLog   = flag.Bool("access-log", false, "log one structured line per request (status, duration, shed reason)")
		reqTimeout  = flag.Duration("request-timeout", 0, "per-request deadline on non-streaming endpoints; expiry answers 504 deadline_exceeded (0 = off)")
		jobTimeout  = flag.Duration("job-timeout", 0, "wall-clock deadline per job run; expiry fails the job terminally (0 = off)")
		stallTO     = flag.Duration("stall-timeout", 0, "stuck-job watchdog: a run making no tuple progress for this long is cancelled and re-queued within -max-attempts (0 = off)")
		maxBody     = flag.String("max-body", "64MiB", "max request body size (e.g. 64MiB, 1GiB); excess answers 413 body_too_large (empty or 0 = unlimited)")
		memSoft     = flag.String("mem-soft", "", "heap soft watermark (e.g. 1GiB): past it, job submissions shed with 429 memory_pressure (empty = off)")
		memHard     = flag.String("mem-hard", "", "heap hard watermark: past it, submissions answer 503 memory_degraded and /status reports the state (empty = off)")
	)
	flag.Parse()

	sys, err := buildSystem(*demo, *loadDir, *inputSpec, *masterSpec, *rulesPath, *masterPath)
	if err != nil {
		log.Fatal("cerfixd: ", err)
	}
	maxBodyBytes, err := guard.ParseBytes(*maxBody)
	if err != nil {
		log.Fatal("cerfixd: -max-body: ", err)
	}
	srv := server.New(sys)
	srv.SetLimits(server.Limits{
		Rate: *rate, Burst: *burst, MaxSyncFix: *maxSyncFix,
		RequestTimeout: *reqTimeout, MaxBody: int64(maxBodyBytes),
	})
	if *accessLog {
		srv.SetAccessLog(log.New(os.Stderr, "", log.LstdFlags))
	}
	if *rate > 0 || *maxSyncFix > 0 || *maxQueued > 0 {
		log.Printf("cerfixd: admission limits: rate=%g/s burst=%d max-sync-fix=%d max-queued-jobs=%d",
			*rate, *burst, *maxSyncFix, *maxQueued)
	}
	if *reqTimeout > 0 || *jobTimeout > 0 || *stallTO > 0 {
		log.Printf("cerfixd: guardrails: request-timeout=%s job-timeout=%s stall-timeout=%s max-body=%d",
			*reqTimeout, *jobTimeout, *stallTO, maxBodyBytes)
	}
	// Heap-watermark shedding: the server samples the live heap at each
	// job submission and /api/v1/status read and sheds submissions soft
	// (429) or hard (503 memory_degraded), with hysteresis so the state
	// cannot flap poll by poll. The Poll that sees a transition logs it;
	// /api/v1/status shows the state under guardrails.memory.
	softBytes, err := guard.ParseBytes(*memSoft)
	if err != nil {
		log.Fatal("cerfixd: -mem-soft: ", err)
	}
	hardBytes, err := guard.ParseBytes(*memHard)
	if err != nil {
		log.Fatal("cerfixd: -mem-hard: ", err)
	}
	if softBytes > 0 || hardBytes > 0 {
		mon := guard.NewMemMonitor(guard.MemConfig{Soft: softBytes, Hard: hardBytes})
		mon.SetOnChange(func(old, new guard.Pressure, heapBytes uint64) {
			log.Printf("cerfixd: memory pressure %s -> %s (heap %d bytes)", old, new, heapBytes)
		})
		srv.SetMemMonitor(mon)
		log.Printf("cerfixd: memory watermarks: soft=%d hard=%d bytes", softBytes, hardBytes)
	}
	// CERFIX_CHAOS=1 arms the chaos seam — reserved tuple values panic
	// or stall workers — so a CI harness can prove panic isolation and
	// watchdog recovery against a real daemon. Never set in production.
	if os.Getenv("CERFIX_CHAOS") == "1" {
		guard.SetChaos(true)
		guard.ArmStalls(-1)
		log.Printf("cerfixd: CHAOS MODE ARMED (CERFIX_CHAOS=1): reserved tuple values inject panics and stalls")
	}
	// The jobs manager re-queues interrupted work at Open, so a daemon
	// restart resumes queued and running batches from the journal.
	var mgr *jobs.Manager
	if *jobsDir != "" {
		// Degraded-mode wiring: every durable jobs write reports into
		// health; while degraded, submissions and saves shed with a
		// typed 503 and the probe readmits them when the disk recovers.
		// Transitions are logged, and /api/v1/status surfaces the state
		// under persistence.health.
		health := faultfs.NewHealth(faultfs.DiskProbe(faultfs.OS, *jobsDir), *probeEvery)
		health.SetOnChange(func(degraded bool, reason string) {
			if degraded {
				log.Printf("cerfixd: persistence degraded (%s); shedding job submissions with 503 persistence_degraded", reason)
			} else {
				log.Printf("cerfixd: persistence recovered; job submissions readmitted")
			}
		})
		mgr, err = jobs.Open(jobs.Config{
			Dir:          *jobsDir,
			Schema:       sys.InputSchema(),
			Snapshot:     srv.SnapshotEngine,
			MasterMemory: sys.MemStats,
			InputRoot:    *jobsInput,
			Workers:      *jobsWorkers,
			MaxQueued:    *maxQueued,
			Health:       health,
			JobTimeout:   *jobTimeout,
			StallTimeout: *stallTO,
		})
		if err != nil {
			log.Fatal("cerfixd: ", err)
		}
		srv.AttachJobs(mgr)
		srv.SetPersistenceHealth(health)
		recovered := 0
		for _, j := range mgr.List() {
			if j.State == jobs.StateQueued {
				recovered++
			}
		}
		log.Printf("cerfixd: jobs directory %s (%d queued, %d runners)", *jobsDir, recovered, mgr.Workers())
	}
	// An explicit http.Server rather than bare ListenAndServe: the
	// header timeout closes slowloris connections, and Shutdown gives
	// in-flight batch repairs a drain window instead of killing them
	// mid-pipeline.
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	log.Printf("cerfixd: serving on %s (input %s, master %s, %d rules, %d master tuples)",
		*addr, sys.InputSchema().Name(), sys.MasterSchema().Name(),
		sys.RuleSet().Len(), sys.Master().Len())

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatal("cerfixd: ", err)
	case sig := <-sigc:
		log.Printf("cerfixd: %v — draining for up to %s", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal("cerfixd: shutdown: ", err)
		}
		if mgr != nil {
			// Give the running job the rest of the drain window; an
			// interrupted run is journaled back to queued and re-runs
			// on the next start.
			if err := mgr.Close(ctx); err != nil {
				log.Printf("cerfixd: jobs drain: %v (interrupted work re-queued)", err)
			}
		}
	}
}

func buildSystem(demo bool, loadDir, inputSpec, masterSpec, rulesPath, masterPath string) (*cerfix.System, error) {
	if loadDir != "" {
		if demo || inputSpec != "" || masterSpec != "" || rulesPath != "" || masterPath != "" {
			return nil, fmt.Errorf("-load is exclusive with -demo/-input/-master-schema/-rules/-master")
		}
		sys, err := cerfix.Load(loadDir)
		if err != nil {
			return nil, err
		}
		info := sys.LoadInfo()
		log.Printf("cerfixd: loaded instance %s (%d master tuples, %d WAL rows replayed, backup fallback: %v)",
			info.Dir, sys.Master().Len(), info.WALRows, info.UsedBackup)
		return sys, nil
	}
	if demo {
		sys, err := cerfix.New(dataset.CustSchema(), dataset.PersonSchema(), dataset.DemoRulesDSL)
		if err != nil {
			return nil, err
		}
		for _, row := range dataset.DemoMasterRows() {
			if err := sys.AddMasterRow(row.Strings()...); err != nil {
				return nil, err
			}
		}
		return sys, nil
	}
	if inputSpec == "" || masterSpec == "" || rulesPath == "" {
		return nil, fmt.Errorf("need -demo, or -input, -master-schema and -rules")
	}
	input, err := parseSchemaSpec(inputSpec)
	if err != nil {
		return nil, err
	}
	masterSch, err := parseSchemaSpec(masterSpec)
	if err != nil {
		return nil, err
	}
	dsl, err := os.ReadFile(rulesPath)
	if err != nil {
		return nil, err
	}
	sys, err := cerfix.New(input, masterSch, string(dsl))
	if err != nil {
		return nil, err
	}
	if masterPath != "" {
		f, err := os.Open(masterPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := sys.LoadMasterCSV(f); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

func parseSchemaSpec(spec string) (*cerfix.Schema, error) {
	name, attrs, ok := strings.Cut(spec, ":")
	if !ok || name == "" {
		return nil, fmt.Errorf("bad schema spec %q (want NAME:attr1,attr2,...)", spec)
	}
	parts := strings.Split(attrs, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return cerfix.NewSchema(name, cerfix.StringAttrs(parts...)...)
}
