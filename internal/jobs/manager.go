package jobs

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cerfix/internal/admission"
	"cerfix/internal/core"
	"cerfix/internal/faultfs"
	"cerfix/internal/guard"
	"cerfix/internal/master"
	"cerfix/internal/pipeline"
	"cerfix/internal/schema"
)

// Errors the Manager reports to callers.
var (
	// ErrNotFound means no job has the given ID.
	ErrNotFound = errors.New("jobs: job not found")
	// ErrFinished means the job already reached a terminal state.
	ErrFinished = errors.New("jobs: job already finished")
	// ErrClosed means the manager is shutting down.
	ErrClosed = errors.New("jobs: manager closed")
	// ErrInvalid marks a submission rejected for client-side reasons
	// (unknown attributes, malformed tuples, bad formats, disallowed
	// paths). Server-side faults — journal or directory I/O — are
	// deliberately NOT Invalid, so the HTTP layer can answer 422 for
	// the former and 5xx for the latter.
	ErrInvalid = errors.New("jobs: invalid submission")
	// ErrBacklogFull means the queue holds Config.MaxQueued jobs
	// already: admission is load shedding, not disk growth. The HTTP
	// layer answers 429 with a Retry-After computed from QueueStats.
	ErrBacklogFull = errors.New("jobs: backlog full")
	// ErrDegraded means persistence is unhealthy (Config.Health): the
	// journal directory cannot take durable writes, so submissions are
	// refused rather than acknowledged into a queue that could lose
	// them. The HTTP layer answers a typed 503 with a Retry-After; the
	// manager recovers automatically when the health probe succeeds.
	ErrDegraded = faultfs.ErrDegraded
	// ErrDeadline marks a run cancelled for exceeding Config.JobTimeout.
	// The job journals as a terminal failure with this reason — unlike a
	// watchdog stall, a deadline means the job ran and was simply too
	// big for the configured budget, so re-running it would only burn
	// another budget.
	ErrDeadline = errors.New("jobs: job deadline exceeded")
)

// invalid tags err as a client-input failure:
// errors.Is(invalid(err), ErrInvalid) holds while the message and the
// wrapped cause stay intact.
func invalid(err error) error { return invalidError{err} }

type invalidError struct{ err error }

func (e invalidError) Error() string        { return e.err.Error() }
func (e invalidError) Unwrap() error        { return e.err }
func (e invalidError) Is(target error) bool { return target == ErrInvalid }

// Config wires a Manager.
type Config struct {
	// Dir is the jobs directory (created if needed); see the package
	// comment for its layout.
	Dir string
	// Schema is the input relation every job's tuples live under.
	Schema *schema.Schema
	// Snapshot returns an isolated engine for one job run — typically
	// the HTTP server's lock-and-snapshot. Called once per run, at
	// job start, so each attempt sees the rules and master data of
	// that moment.
	Snapshot func() *core.Engine
	// MasterMemory optionally reports the master data manager's byte
	// accounting for QueueStats. Unlike Snapshot it is called on every
	// Stats read, so it must be cheap and non-blocking (nil omits the
	// field).
	MasterMemory func() master.MemStats
	// InputRoot confines SubmitFile paths: only files under this
	// directory (after resolving symlinks) may be opened by jobs.
	// Empty rejects every server-side path submission — inline
	// tuples, which are materialized into the jobs directory, are
	// always allowed.
	InputRoot string
	// MaxQueued bounds the number of jobs waiting to run (<=0 means
	// unbounded). A submission past the bound fails with
	// ErrBacklogFull before touching disk — the persistent backlog
	// must not grow just because callers outpace the runners. The
	// bound gates new admissions only: restart recovery re-queues
	// every interrupted job even when that exceeds it.
	MaxQueued int
	// Workers is the number of concurrent job runners (<=0 means 1).
	// Each runner executes one job at a time against its own O(1)
	// engine snapshot; admission is fair FIFO — whenever a runner
	// frees up it starts the oldest queued job, so no job is ever
	// overtaken by a later submission. More runners let short jobs
	// proceed alongside long ones instead of queueing behind them.
	Workers int
	// Pipeline tunes the underlying batch runs (nil = defaults).
	Pipeline *pipeline.Options
	// FS routes every durable I/O the manager performs — journals,
	// materialized inline inputs, results artifacts. Nil means the
	// real filesystem; the fault harness installs an injector.
	FS faultfs.FS
	// Health, when set, gates submissions on persistence health
	// (Submit* fail fast with ErrDegraded while the journal directory
	// cannot take durable writes) and receives the outcome of every
	// journal and artifact write.
	Health *faultfs.Health
	// MaxAttempts bounds run attempts per job across transient storage
	// failures — ENOSPC, EIO, failed fsync — which retry with backoff
	// (default 3). Permanent input errors never retry.
	MaxAttempts int
	// RetryBackoff is the base delay before a transient-failure retry,
	// doubled per attempt (default 100ms; tests shrink it).
	RetryBackoff time.Duration
	// JobTimeout bounds one run's wall clock (0 = unbounded). A run
	// past it is cancelled and journaled as failed with the deadline
	// reason — the guardrail against jobs that are making progress but
	// will never fit the operator's budget.
	JobTimeout time.Duration
	// StallTimeout arms the stuck-job watchdog (0 = off): a running
	// job whose per-tuple progress counter has not advanced for this
	// long is cancelled and re-queued for another attempt — bounded by
	// MaxAttempts, after which it fails with the stall reason.
	StallTimeout time.Duration
}

// job is the Manager's runtime view of one Job record.
type job struct {
	rec Job
	dir string
	// cancel aborts the run with a cause: nil for user cancels and
	// shutdown, a guard.ErrStalled-wrapped error when the watchdog
	// fires. Non-nil while running.
	cancel    context.CancelCauseFunc
	stopTimer context.CancelFunc // releases the JobTimeout timer, if any
	unwatch   func()             // deregisters from the watchdog, if any
	ctxForRun context.Context    // the run's context, set with cancel
	requeue   bool               // shutdown drain: re-queue instead of cancelling
	// processed is the live run's counter — atomic so the per-tuple
	// sink never touches the manager lock. It doubles as the watchdog
	// heartbeat.
	processed atomic.Int64
}

// snapshotLocked copies the record, folding in the live counter for a
// running job. Callers hold m.mu.
func (j *job) snapshotLocked() Job {
	rec := j.rec
	if rec.State == StateRunning {
		rec.Processed = int(j.processed.Load())
	}
	return rec
}

// Manager owns the job queue: submission, the background worker,
// journal persistence and restart recovery.
type Manager struct {
	cfg  Config
	fs   faultfs.FS
	mu   sync.Mutex
	cond *sync.Cond
	jobs map[string]*job
	seq  int
	// quarantined counts job directories set aside at recovery because
	// their journal failed its checksum (surfaced in QueueStats).
	quarantined int
	// reserved counts submissions between their backlog reservation
	// (allocate) and appearing in jobs, a streaming inline upload for
	// its whole length, so concurrent submitters cannot jointly
	// overshoot MaxQueued.
	reserved int
	// closed stops the worker from starting new jobs; Close waits for
	// the in-flight one.
	closed bool
	wg     sync.WaitGroup
	// svc tracks the moving average of completed-job service time
	// (started → finished) — the basis for backlog Retry-After hints.
	svc admission.EWMA
	// watchdog cancels runs whose progress counter stalls past
	// Config.StallTimeout (nil when the guardrail is off).
	watchdog *guard.Watchdog
	// panics counts runner panics converted into job failures.
	panics atomic.Int64
}

// QueueStats is a point-in-time view of the queue for status
// endpoints and load-shedding decisions.
type QueueStats struct {
	// Queued through Cancelled count jobs per lifecycle state.
	Queued    int `json:"queued"`
	Running   int `json:"running"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
	// Workers and MaxQueued echo the configuration (MaxQueued 0 =
	// unbounded).
	Workers   int `json:"workers"`
	MaxQueued int `json:"max_queued"`
	// Quarantined counts job directories set aside at recovery because
	// their journal failed its integrity check (kept on disk as
	// <id>.corrupt for inspection, never run).
	Quarantined int `json:"quarantined"`
	// AvgServiceMS is the moving average of completed-job service
	// time in milliseconds (0 until a job completes).
	AvgServiceMS float64 `json:"avg_service_ms"`
	// MasterMemory is the memory accounting of the master data the
	// jobs run against (nil when the manager has no snapshot source).
	// Job runners chase against O(1) snapshots, which share the live
	// master's rows and rule-index shards.
	MasterMemory *master.MemStats `json:"master_memory,omitempty"`
	// Stalls counts watchdog cancellations of wedged runs; Panics
	// counts runner panics converted into job failures.
	Stalls int64 `json:"stalls"`
	Panics int64 `json:"panics"`
	// JobTimeoutMS and StallTimeoutMS echo the runtime guardrails
	// (0 = disabled).
	JobTimeoutMS   int64 `json:"job_timeout_ms"`
	StallTimeoutMS int64 `json:"stall_timeout_ms"`
}

// AvgService returns the average service time as a duration.
func (s QueueStats) AvgService() time.Duration {
	return time.Duration(s.AvgServiceMS * float64(time.Millisecond))
}

// Stats returns current queue depths, configuration, the observed
// service-time average and the master-memory accounting.
func (m *Manager) Stats() QueueStats {
	// Resolve master memory before taking m.mu: the hook typically
	// reaches into the HTTP server's system, and nesting its lock
	// under ours would invert the order other handlers use.
	var mem *master.MemStats
	if m.cfg.MasterMemory != nil {
		ms := m.cfg.MasterMemory()
		mem = &ms
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	st := QueueStats{
		Workers:        m.cfg.Workers,
		MaxQueued:      m.cfg.MaxQueued,
		Quarantined:    m.quarantined,
		AvgServiceMS:   float64(m.svc.Value()) / float64(time.Millisecond),
		MasterMemory:   mem,
		Panics:         m.panics.Load(),
		JobTimeoutMS:   m.cfg.JobTimeout.Milliseconds(),
		StallTimeoutMS: m.cfg.StallTimeout.Milliseconds(),
	}
	if m.watchdog != nil {
		st.Stalls = m.watchdog.Stalls()
	}
	st.Queued = m.reserved
	for _, j := range m.jobs {
		switch j.rec.State {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
		case StateDone:
			st.Done++
		case StateFailed:
			st.Failed++
		case StateCancelled:
			st.Cancelled++
		}
	}
	return st
}

// Open loads the jobs directory, re-queues every job found queued or
// running (discarding partial artifacts), and starts the configured
// number of background runners (Config.Workers, default 1).
func Open(cfg Config) (*Manager, error) {
	if cfg.Dir == "" || cfg.Schema == nil || cfg.Snapshot == nil {
		return nil, errors.New("jobs: Config needs Dir, Schema and Snapshot")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.FS == nil {
		cfg.FS = faultfs.OS
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 100 * time.Millisecond
	}
	if err := cfg.FS.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	m := &Manager{cfg: cfg, fs: cfg.FS, jobs: make(map[string]*job)}
	m.cond = sync.NewCond(&m.mu)
	if cfg.StallTimeout > 0 {
		m.watchdog = guard.NewWatchdog(cfg.StallTimeout)
		m.watchdog.Start()
	}
	if err := m.recover(); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

// recover scans the directory and rebuilds the in-memory table from
// the job.json journals, removing torn submits (directories named as a
// job ID with no journal). A journal that exists but fails its
// integrity check (bad JSON, checksum mismatch, wrong ID) is real
// corruption, not a torn submit: the whole job directory is set aside
// as <id>.corrupt for inspection — never run, never silently dropped
// — and counted in QueueStats.Quarantined.
func (m *Manager) recover() error {
	entries, err := m.fs.ReadDir(m.cfg.Dir)
	if err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() || strings.HasSuffix(e.Name(), ".corrupt") {
			continue
		}
		seq, isJob := jobSeq(e.Name())
		dir := filepath.Join(m.cfg.Dir, e.Name())
		data, err := m.fs.ReadFile(filepath.Join(dir, "job.json"))
		if errors.Is(err, fs.ErrNotExist) {
			// No journal. Under a job ID this is a torn submit,
			// interrupted before its journal rename, so never
			// acknowledged: nothing will ever run or list it, and a
			// later submit reuses its ID only if no later job was
			// recovered, so remove it now. Any other name is not the
			// manager's (the jobs directory need not be dedicated) and
			// is left alone.
			if isJob {
				if err := m.fs.RemoveAll(dir); err != nil {
					log.Printf("jobs: %s: removing torn submit failed: %v", dir, err)
				}
			}
			continue
		}
		if err != nil {
			// Unreadable for another reason: it may hide an
			// acknowledged job, so leave it on disk and skip it rather
			// than refuse to start.
			continue
		}
		rec, derr := decodeJournal(data)
		if derr != nil || rec.ID != e.Name() {
			if derr == nil {
				derr = fmt.Errorf("journal names job %q", rec.ID)
			}
			m.quarantine(dir, derr)
			continue
		}
		j := &job{rec: rec, dir: dir}
		if !rec.State.Terminal() {
			// Interrupted mid-queue or mid-run: start over. The stale
			// artifact is truncated when the run begins.
			j.rec.State = StateQueued
			j.rec.Started = time.Time{}
			j.rec.Processed = 0
			if err := m.persist(j); err != nil {
				return err
			}
		}
		m.jobs[rec.ID] = j
		if isJob && seq > m.seq {
			m.seq = seq
		}
	}
	return nil
}

// quarantine sets a corrupt job directory aside as <dir>.corrupt.
func (m *Manager) quarantine(dir string, cause error) {
	q := dir + ".corrupt"
	_ = m.fs.RemoveAll(q)
	if err := m.fs.Rename(dir, q); err != nil {
		log.Printf("jobs: %s: corrupt journal (%v); quarantine failed: %v", dir, cause, err)
		return
	}
	log.Printf("jobs: %s: corrupt journal (%v); directory preserved at %s", dir, cause, q)
	m.quarantined++
}

// journalEnvelope is the on-disk shape of job.json: the compact job
// record plus a CRC32-IEEE of its bytes, so restart recovery can tell
// a damaged journal from a valid one instead of trusting whatever
// parses.
type journalEnvelope struct {
	CRC uint32          `json:"crc"`
	Job json.RawMessage `json:"job"`
}

// decodeJournal verifies and decodes a job.json. Anything but a
// checksum-valid envelope — a bare record included — is corruption.
func decodeJournal(data []byte) (Job, error) {
	var env journalEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return Job{}, fmt.Errorf("journal: %w", err)
	}
	if len(env.Job) == 0 {
		return Job{}, errors.New("journal has no checksum envelope")
	}
	if got := crc32.ChecksumIEEE(env.Job); got != env.CRC {
		return Job{}, fmt.Errorf("journal checksum mismatch (want %08x, have %08x)", env.CRC, got)
	}
	var rec Job
	if err := json.Unmarshal(env.Job, &rec); err != nil {
		return Job{}, fmt.Errorf("journal: %w", err)
	}
	return rec, nil
}

// persist journals the job record atomically and durably: checksummed
// envelope into a temp file, fsync, rename over job.json, directory
// sync — so a crash at any point leaves either the previous journal
// or the new one, both checksum-valid, never a torn or hollow file.
// The outcome feeds the persistence health tracker.
func (m *Manager) persist(j *job) error {
	err := m.persistJournal(j)
	m.reportHealth(err)
	return err
}

// reportHealth feeds a durable-I/O outcome to the health tracker (a
// no-op without one; permanent errors are filtered by Health itself).
func (m *Manager) reportHealth(err error) {
	if m.cfg.Health != nil {
		m.cfg.Health.ReportResult(err)
	}
}

func (m *Manager) persistJournal(j *job) error {
	payload, err := json.Marshal(j.rec)
	if err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	data, err := json.Marshal(journalEnvelope{CRC: crc32.ChecksumIEEE(payload), Job: payload})
	if err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	tmp := filepath.Join(j.dir, ".job.json.tmp")
	if err := faultfs.WriteFileSync(m.fs, tmp, data, 0o644); err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	if err := m.fs.Rename(tmp, filepath.Join(j.dir, "job.json")); err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	if err := m.fs.SyncDir(j.dir); err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	return nil
}

// healthGate fails fast with ErrDegraded while persistence is
// unhealthy. The Check itself drives recovery: once the probe
// interval elapses it re-probes the journal directory and, on
// success, flips back to healthy and admits the triggering caller.
func (m *Manager) healthGate() error {
	if m.cfg.Health == nil {
		return nil
	}
	if err := m.cfg.Health.Check(); err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	return nil
}

// validateAttrs rejects unknown or empty validated lists up front.
func (m *Manager) validateAttrs(validated []string) error {
	if len(validated) == 0 {
		return invalid(errors.New("jobs: validated attribute list required"))
	}
	for _, a := range validated {
		if !m.cfg.Schema.Has(a) {
			return invalid(fmt.Errorf("jobs: unknown attribute %q", a))
		}
	}
	return nil
}

// SubmitFile queues a job over a server-side CSV or JSONL file. The
// path must resolve inside Config.InputRoot (the daemon must not
// become an arbitrary-file reader for any HTTP client) and stay
// readable until the job completes (it is re-read on restart
// recovery).
func (m *Manager) SubmitFile(validated []string, path, format string) (Job, error) {
	if err := m.healthGate(); err != nil {
		return Job{}, err
	}
	if err := m.validateAttrs(validated); err != nil {
		return Job{}, err
	}
	if format != FormatCSV && format != FormatJSONL {
		return Job{}, invalid(fmt.Errorf("jobs: bad format %q (want %s or %s)", format, FormatCSV, FormatJSONL))
	}
	abs, err := m.confineInput(path)
	if err != nil {
		return Job{}, invalid(err)
	}
	if _, err := os.Stat(abs); err != nil {
		return Job{}, invalid(fmt.Errorf("jobs: input: %w", err))
	}
	id, dir, err := m.allocate()
	if err != nil {
		return Job{}, err
	}
	return m.enqueue(id, dir, validated, abs, format)
}

// confineInput resolves path and rejects anything outside InputRoot,
// following symlinks so a link inside the root cannot escape it.
func (m *Manager) confineInput(path string) (string, error) {
	if m.cfg.InputRoot == "" {
		return "", errors.New("jobs: server-side input paths are disabled (no input root configured)")
	}
	root, err := filepath.EvalSymlinks(m.cfg.InputRoot)
	if err != nil {
		return "", fmt.Errorf("jobs: input root: %w", err)
	}
	abs, err := filepath.Abs(path)
	if err != nil {
		return "", fmt.Errorf("jobs: %w", err)
	}
	resolved, err := filepath.EvalSymlinks(abs)
	if err != nil {
		return "", fmt.Errorf("jobs: input: %w", err)
	}
	rel, err := filepath.Rel(root, resolved)
	if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		return "", fmt.Errorf("jobs: input %q is outside the input root", path)
	}
	return resolved, nil
}

// Admit is the advisory admission check a submitter makes before it
// reads any input: ErrClosed while the manager shuts down,
// ErrBacklogFull while MaxQueued jobs wait (uploads in progress
// included), and ErrDegraded while persistence is unhealthy. It does
// no job-directory work, so a shed submission costs nothing (while
// degraded, the health gate may run its rate-limited probe).
// BeginInline and SubmitFile re-check authoritatively.
func (m *Manager) Admit() error {
	m.mu.Lock()
	err := m.admitLocked()
	m.mu.Unlock()
	if err != nil {
		return err
	}
	return m.healthGate()
}

// admitLocked checks shutdown and the backlog bound. Callers hold m.mu.
func (m *Manager) admitLocked() error {
	if m.closed {
		return ErrClosed
	}
	if m.cfg.MaxQueued > 0 && m.queuedLocked() >= m.cfg.MaxQueued {
		return ErrBacklogFull
	}
	return nil
}

// allocate is the authoritative admission: under the lock, BEFORE any
// disk work, it checks shutdown and the backlog bound, takes a backlog
// reservation and allocates the job ID; then it creates the job
// directory. A shed submission leaves no trace, and the reservation —
// held until enqueue puts the job in the table or the submission is
// abandoned (release) — keeps concurrent submitters from jointly
// overshooting MaxQueued.
func (m *Manager) allocate() (id, dir string, err error) {
	m.mu.Lock()
	if err := m.admitLocked(); err != nil {
		m.mu.Unlock()
		return "", "", err
	}
	m.reserved++
	m.seq++
	id = jobID(m.seq)
	m.mu.Unlock()

	dir = filepath.Join(m.cfg.Dir, id)
	if err := m.fs.MkdirAll(dir, 0o755); err != nil {
		m.release()
		m.reportHealth(err)
		return "", "", fmt.Errorf("jobs: %w", err)
	}
	return id, dir, nil
}

// release returns a backlog reservation taken by allocate.
func (m *Manager) release() {
	m.mu.Lock()
	m.reserved--
	m.mu.Unlock()
}

// enqueue journals the queued record of an allocated job, moves its
// reservation into the table and wakes a runner. On failure the job
// directory is removed and the reservation released.
func (m *Manager) enqueue(id, dir string, validated []string, input, format string) (Job, error) {
	j := &job{
		rec: Job{
			ID:        id,
			State:     StateQueued,
			Validated: append([]string(nil), validated...),
			Input:     input,
			Format:    format,
			Submitted: time.Now().UTC(),
		},
		dir: dir,
	}
	if err := m.persist(j); err != nil {
		_ = m.fs.RemoveAll(dir)
		m.release()
		return Job{}, err
	}
	m.mu.Lock()
	m.jobs[id] = j
	m.reserved--
	rec := j.rec // copy under the lock; the worker may pick it up immediately
	m.mu.Unlock()
	m.cond.Broadcast()
	return rec, nil
}

// queuedLocked counts jobs waiting to run plus the reservations of
// submissions in flight. Callers hold m.mu.
func (m *Manager) queuedLocked() int {
	n := m.reserved
	for _, j := range m.jobs {
		if j.rec.State == StateQueued {
			n++
		}
	}
	return n
}

// Workers returns the effective number of concurrent runners the
// manager started (Config.Workers after normalization).
func (m *Manager) Workers() int { return m.cfg.Workers }

// jobID formats the ID of the n-th job the manager allocates.
func jobID(n int) string { return fmt.Sprintf("j%06d", n) }

// jobSeq reports whether name is an ID the manager allocates and, if
// so, its sequence number: "j" + digits that format back to name.
func jobSeq(name string) (int, bool) {
	if !strings.HasPrefix(name, "j") {
		return 0, false
	}
	n, err := strconv.Atoi(name[1:])
	if err != nil || n <= 0 || jobID(n) != name {
		return 0, false
	}
	return n, true
}

// jobIDLess orders job IDs by submission: IDs are "j" + a zero-padded
// sequence number, so shorter strings sort first and equal lengths
// compare lexicographically — correct even past the pad width, where
// a plain string compare would put "j1000000" before "j999999".
func jobIDLess(a, b string) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	return a < b
}

// Get returns a snapshot of one job record.
func (m *Manager) Get(id string) (Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Job{}, ErrNotFound
	}
	return j.snapshotLocked(), nil
}

// List returns snapshots of every job, oldest first.
func (m *Manager) List() []Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, j.snapshotLocked())
	}
	sort.Slice(out, func(a, b int) bool { return jobIDLess(out[a].ID, out[b].ID) })
	return out
}

// ResultsPath returns the job's results artifact path once the job is
// terminal (a cancelled or failed job exposes its partial prefix).
func (m *Manager) ResultsPath(id string) (string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return "", ErrNotFound
	}
	if !j.rec.State.Terminal() {
		return "", fmt.Errorf("jobs: job %s is %s, results not final", id, j.rec.State)
	}
	return filepath.Join(j.dir, "results.jsonl"), nil
}

// Cancel aborts a job: a queued job turns cancelled immediately, a
// running one has its pipeline context cancelled (the worker journals
// the terminal state within one backpressure window). The returned
// snapshot reflects the record at call time.
func (m *Manager) Cancel(id string) (Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Job{}, ErrNotFound
	}
	switch j.rec.State {
	case StateQueued:
		j.rec.State = StateCancelled
		j.rec.Finished = time.Now().UTC()
		if err := m.persist(j); err != nil {
			return Job{}, err
		}
	case StateRunning:
		j.cancel(nil)
	default:
		return Job{}, ErrFinished
	}
	return j.snapshotLocked(), nil
}

// Remove purges a terminal job: its record, its directory and every
// artifact in it. Live jobs must reach a terminal state (Cancel)
// first. This is the retention mechanism — terminal jobs are kept
// until removed.
func (m *Manager) Remove(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return ErrNotFound
	}
	if !j.rec.State.Terminal() {
		return fmt.Errorf("jobs: job %s is %s; cancel it before removing", id, j.rec.State)
	}
	if err := m.fs.RemoveAll(j.dir); err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	delete(m.jobs, id)
	return nil
}

// Close drains the manager: no new job starts, and every in-flight
// job gets until ctx expires to finish before being interrupted and
// re-queued for the next start. Safe to call once.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()

	finished := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(finished)
	}()
	var err error
	select {
	case <-finished:
	case <-ctx.Done():
		m.mu.Lock()
		for _, j := range m.jobs {
			if j.rec.State == StateRunning && j.cancel != nil {
				j.requeue = true
				j.cancel(nil)
			}
		}
		m.mu.Unlock()
		<-finished
		err = ctx.Err()
	}
	if m.watchdog != nil {
		m.watchdog.Close()
	}
	return err
}

// worker is one background runner. Config.Workers of them run
// concurrently, each executing one job at a time against its own
// engine snapshot — snapshots are O(1) copy-on-write views, so N
// runners cost no more to start than one. Admission stays fair FIFO:
// next() always hands out the oldest queued job, so concurrency never
// reorders starts, only overlaps executions. (Intra-job parallelism
// additionally lives inside each run: the pipeline's worker pool.)
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		j := m.next()
		if j == nil {
			return
		}
		m.run(j)
	}
}

// next blocks until a queued job exists (returning the oldest) or the
// manager closes (returning nil). It transitions the job to running
// under the lock.
func (m *Manager) next() *job {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if m.closed {
			return nil
		}
		var pick *job
		for _, j := range m.jobs {
			if j.rec.State != StateQueued {
				continue
			}
			if pick == nil || jobIDLess(j.rec.ID, pick.rec.ID) {
				pick = j
			}
		}
		if pick != nil {
			pick.rec.State = StateRunning
			pick.rec.Started = time.Now().UTC()
			pick.rec.Attempts++
			pick.rec.Processed = 0
			pick.processed.Store(0)
			pick.rec.Error = ""
			pick.rec.PanicStack = ""
			// The run's context carries its own termination story in the
			// cancellation cause: nil for user cancel and shutdown, the
			// stall error when the watchdog fires, the deadline error
			// when JobTimeout elapses — run() classifies on it.
			ctx, cancel := context.WithCancelCause(context.Background())
			runCtx := ctx
			var stopTimer context.CancelFunc = func() {}
			if m.cfg.JobTimeout > 0 {
				runCtx, stopTimer = context.WithTimeoutCause(ctx, m.cfg.JobTimeout,
					fmt.Errorf("%w after %s", ErrDeadline, m.cfg.JobTimeout))
			}
			pick.cancel = cancel
			pick.stopTimer = stopTimer
			pick.ctxForRun = runCtx
			if err := m.persist(pick); err != nil {
				// Journal write failure: fail the job rather than run
				// it unrecorded.
				pick.rec.State = StateFailed
				pick.rec.Error = err.Error()
				pick.rec.Finished = time.Now().UTC()
				pick.cancel = nil
				pick.stopTimer = nil
				pick.ctxForRun = nil
				stopTimer()
				cancel(nil)
				continue
			}
			if m.watchdog != nil {
				pick.unwatch = m.watchdog.Watch(pick.rec.ID, pick.processed.Load,
					func(cause error) { cancel(cause) })
			}
			return pick
		}
		m.cond.Wait()
	}
}

// run executes one job through the pipeline and journals the outcome.
// Transient storage faults — ENOSPC, EIO, a failed fsync — retry in
// place with exponential backoff up to Config.MaxAttempts: the input
// is fine, the disk hiccuped, and each retry restarts the attempt
// from scratch (the artifact is truncated on open). Permanent errors
// — bad input, pipeline failures — never retry.
func (m *Manager) run(j *job) {
	ctx := j.ctxForRun
	err := m.safeRunPipeline(ctx, j)
	m.reportHealth(err)
	for err != nil && faultfs.Transient(err) && ctx.Err() == nil {
		m.mu.Lock()
		if j.rec.Attempts >= m.cfg.MaxAttempts {
			m.mu.Unlock()
			break
		}
		j.rec.Attempts++
		attempt := j.rec.Attempts
		j.rec.Processed = 0
		j.processed.Store(0)
		// Best-effort: the attempt count is advisory; if the journal
		// write fails too the retry itself may still succeed.
		_ = m.persist(j)
		m.mu.Unlock()
		select {
		case <-ctx.Done():
		case <-time.After(m.cfg.RetryBackoff << (attempt - 2)):
		}
		if ctx.Err() != nil {
			break
		}
		err = m.safeRunPipeline(ctx, j)
		m.reportHealth(err)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if j.unwatch != nil {
		j.unwatch()
		j.unwatch = nil
	}
	// Read the cause before the cleanup cancel below overwrites it: a
	// never-cancelled context would otherwise report plain Canceled.
	cause := context.Cause(ctx)
	j.cancel(nil)
	j.stopTimer()
	j.cancel = nil
	j.stopTimer = nil
	j.ctxForRun = nil
	j.rec.Processed = int(j.processed.Load())
	var pe *guard.PanicError
	switch {
	case err == nil:
		j.rec.State = StateDone
	case errors.As(err, &pe):
		// A recovered panic — one poisoned tuple or rule — is a
		// terminal failure with the stack journaled; never retried (the
		// same input would panic again).
		m.panics.Add(1)
		j.rec.State = StateFailed
		j.rec.Error = err.Error()
		j.rec.PanicStack = string(pe.Stack)
	case errors.Is(cause, guard.ErrStalled):
		// The watchdog cancelled a wedged run. Re-queue for another
		// attempt while the MaxAttempts budget lasts (the stall may
		// have been environmental); past it, fail with the stall
		// reason.
		if j.requeue || j.rec.Attempts < m.cfg.MaxAttempts {
			j.rec.State = StateQueued
			j.rec.Started = time.Time{}
			j.rec.Processed = 0
			j.requeue = false
		} else {
			j.rec.State = StateFailed
			j.rec.Error = cause.Error()
		}
	case errors.Is(cause, ErrDeadline), errors.Is(err, context.DeadlineExceeded):
		j.rec.State = StateFailed
		if cause != nil {
			j.rec.Error = cause.Error()
		} else {
			j.rec.Error = err.Error()
		}
	case errors.Is(err, context.Canceled) && j.requeue:
		// Shutdown drain interrupted the run: journal it back to
		// queued so the next Open re-runs it.
		j.rec.State = StateQueued
		j.rec.Started = time.Time{}
		j.rec.Processed = 0
		j.requeue = false
	case errors.Is(err, context.Canceled):
		j.rec.State = StateCancelled
	default:
		j.rec.State = StateFailed
		j.rec.Error = err.Error()
	}
	if j.rec.State.Terminal() {
		j.rec.Finished = time.Now().UTC()
	}
	if perr := m.persist(j); perr != nil && j.rec.State == StateDone {
		// A job whose completion cannot be journaled must not report
		// done: it would re-run after restart anyway.
		j.rec.State = StateFailed
		j.rec.Error = perr.Error()
		_ = m.persist(j)
	}
	if j.rec.State == StateDone {
		// Completed-job service time feeds the backlog Retry-After
		// estimate (QueueStats.AvgServiceMS).
		m.svc.Observe(j.rec.Finished.Sub(j.rec.Started))
	}
	if j.rec.State == StateQueued && !m.closed {
		// A stall re-queue must wake a runner the way a fresh
		// submission would.
		m.cond.Broadcast()
	}
}

// safeRunPipeline shields the runner goroutine: a panic anywhere in
// the run that the pipeline's own worker/reader recovery does not
// catch — source construction, the artifact sink, journal encoding —
// is converted into a typed *guard.PanicError instead of killing the
// daemon.
func (m *Manager) safeRunPipeline(ctx context.Context, j *job) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = guard.NewPanicError("jobs runner", p, debug.Stack())
		}
	}()
	return m.runPipeline(ctx, j)
}

// fileBufSize is the write buffer of a job's input.jsonl and
// results.jsonl: one write(2) per few hundred lines, not one per line
// or per 4 KiB.
const fileBufSize = 64 << 10

// runPipeline opens the source, streams results to the artifact, and
// returns the pipeline's error (nil on full completion).
func (m *Manager) runPipeline(ctx context.Context, j *job) error {
	input := j.rec.Input
	if !filepath.IsAbs(input) {
		input = filepath.Join(j.dir, input)
	}
	in, err := m.fs.Open(input)
	if err != nil {
		return err
	}
	defer in.Close()
	var src pipeline.Source
	switch j.rec.Format {
	case FormatCSV:
		src, err = pipeline.NewCSVSource(m.cfg.Schema, in)
		if err != nil {
			return err
		}
	case FormatJSONL:
		src = pipeline.NewJSONLSource(m.cfg.Schema, in)
	default:
		return fmt.Errorf("bad input format %q", j.rec.Format)
	}

	out, err := faultfs.Create(m.fs, filepath.Join(j.dir, "results.jsonl"))
	if err != nil {
		return err
	}
	defer out.Close()
	bw := bufio.NewWriterSize(out, fileBufSize)
	// Results are rendered through the append-style encoder — byte-
	// identical to json.Encoder encoding a TupleResult, but through one
	// buffer recycled per record, honoring the pipeline's contract that
	// a result is dead once Write returns: nothing per-tuple survives
	// the write, so a steady-state job run allocates O(window), not
	// O(tuples).
	enc := NewResultEncoder(m.cfg.Schema)
	var line []byte
	sink := pipeline.SinkFunc(func(r *pipeline.Result) error {
		line = enc.Append(line[:0], r)
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
		j.processed.Add(1)
		return nil
	})

	seed := schema.SetOfNames(m.cfg.Schema, j.rec.Validated...)
	stats, err := pipeline.Run(ctx, m.cfg.Snapshot(), seed, src, sink, m.cfg.Pipeline)
	if err != nil {
		_ = bw.Flush()
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := out.Sync(); err != nil {
		return err
	}
	m.mu.Lock()
	j.rec.Stats = &stats
	m.mu.Unlock()
	return nil
}
