package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"cerfix/internal/core"
	"cerfix/internal/dataset"
	"cerfix/internal/faultfs"
	"cerfix/internal/schema"
)

// faultConfig builds a Manager config over the given fs with a tiny
// retry backoff so transient-failure tests run fast.
func faultConfig(dir string, eng *core.Engine, fs faultfs.FS) Config {
	return Config{
		Dir:          dir,
		Schema:       dataset.CustSchema(),
		Snapshot:     eng.Snapshot,
		FS:           fs,
		RetryBackoff: time.Millisecond,
	}
}

func submitTuples(m *Manager, validated []string, dirty []*schema.Tuple) (Job, error) {
	tuples := make([]map[string]string, len(dirty))
	for i, tu := range dirty {
		tuples[i] = tu.Map()
	}
	return m.SubmitInline(validated, tuples)
}

// waitTerminal polls until the job reaches any terminal state (or the
// manager loses it, which the caller treats as its own failure).
func waitTerminal(t *testing.T, m *Manager, id string) Job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if j.State.Terminal() {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, j.State)
		}
		time.Sleep(time.Millisecond)
	}
}

func assertArtifact(t *testing.T, path string, want [][]byte, ctx string) {
	t.Helper()
	got := readArtifact(t, path)
	if len(got) != len(want) {
		t.Fatalf("%s: artifact has %d lines, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if string(got[i]) != string(want[i]) {
			t.Fatalf("%s: artifact line %d:\n got %s\nwant %s", ctx, i, got[i], want[i])
		}
	}
}

// TestCrashSweepJobLifecycle enumerates every crash point of a full
// job lifecycle — manager open, inline submit (materialize + journal),
// the run's journals and results streaming, the done journal — and for
// each prefix and each unsynced-loss variant asserts the recovery
// invariants: the directory always reopens cleanly, crash residue is
// never mistaken for corruption, a torn submit leaves nothing behind,
// and an acknowledged job is either
// cleanly re-queued (and re-runnable to the byte-exact artifact) or
// already done with a complete artifact. Never lost, never half-done.
func TestCrashSweepJobLifecycle(t *testing.T) {
	eng, dirty, validated := testWorkload(t, 20, 10)
	dirty = dirty[:3]
	want := expectedArtifact(t, eng, dirty, validated)

	// Count run: one full lifecycle on a throwaway directory.
	count := faultfs.NewInjector(faultfs.OS)
	{
		m, err := Open(faultConfig(t.TempDir(), eng, count))
		if err != nil {
			t.Fatal(err)
		}
		j, err := submitTuples(m, validated, dirty)
		if err != nil {
			t.Fatal(err)
		}
		if got := waitTerminal(t, m, j.ID); got.State != StateDone {
			t.Fatalf("count run ended %s (%s)", got.State, got.Error)
		}
		if err := m.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	n := count.EffectOps()
	if n < 10 {
		t.Fatalf("suspiciously short lifecycle trace (%d ops): %v", n, count.Trace())
	}

	for k := 0; k < n; k++ {
		for _, keep := range []float64{0, 0.5, 1} {
			dir := t.TempDir()
			inj := faultfs.NewInjector(faultfs.OS)
			inj.SetCrashAt(k)

			var ackedID string
			m, err := Open(faultConfig(dir, eng, inj))
			if err == nil {
				if j, serr := submitTuples(m, validated, dirty); serr == nil {
					ackedID = j.ID
					// Drive until the run either completes or hits the
					// crash (ErrCrashed is permanent, so the worker
					// journals a terminal state — or dies trying).
					deadline := time.Now().Add(10 * time.Second)
					for {
						got, gerr := m.Get(ackedID)
						if gerr != nil || got.State.Terminal() || inj.Crashed() {
							break
						}
						if time.Now().After(deadline) {
							t.Fatalf("crash at op %d: job neither finished nor crashed", k)
						}
						time.Sleep(time.Millisecond)
					}
				}
				_ = m.Close(context.Background())
			} else if !errors.Is(err, faultfs.ErrCrashed) {
				t.Fatalf("crash at op %d: Open failed with %v, want ErrCrashed", k, err)
			}

			if err := inj.LoseUnsynced(keep); err != nil {
				t.Fatalf("crash at op %d keep=%v: loss simulation: %v", k, keep, err)
			}

			// Restart on the real filesystem: recovery must always
			// succeed, and crash residue must never look like corruption.
			m2, err := Open(faultConfig(dir, eng, nil))
			if err != nil {
				t.Fatalf("crash at op %d keep=%v: reopen failed: %v", k, keep, err)
			}
			if q := m2.Stats().Quarantined; q != 0 {
				t.Fatalf("crash at op %d keep=%v: crash residue quarantined as corruption (%d)", k, keep, q)
			}
			// A torn submit is removed, not left behind: every entry is
			// a recovered job or a quarantine.
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if _, gerr := m2.Get(e.Name()); gerr != nil && !strings.HasSuffix(e.Name(), ".corrupt") {
					t.Fatalf("crash at op %d keep=%v: %s is neither a recovered job nor a quarantine", k, keep, e.Name())
				}
			}
			if ackedID != "" {
				// The acknowledged job survived: re-queued or done. Drive
				// it to completion and demand the byte-exact artifact.
				j := waitTerminal(t, m2, ackedID)
				if j.State != StateDone {
					t.Fatalf("crash at op %d keep=%v: recovered job ended %s (%s)", k, keep, j.State, j.Error)
				}
				path, err := m2.ResultsPath(ackedID)
				if err != nil {
					t.Fatal(err)
				}
				assertArtifact(t, path, want, "recovered job")
			}
			if err := m2.Close(context.Background()); err != nil {
				t.Fatalf("crash at op %d keep=%v: close: %v", k, keep, err)
			}
		}
	}
}

// TestRecoverLeavesForeignDirectories pins what restart recovery may
// delete. A directory named as a job ID with no journal is a torn
// submit and goes; the jobs directory need not be dedicated, so every
// other entry — input files, an instance directory, a .git, names
// that only look like an ID — survives Open with its contents. A torn
// submit that cannot be removed is left in place and does not fail
// Open.
func TestRecoverLeavesForeignDirectories(t *testing.T) {
	eng, _, _ := testWorkload(t, 5, 5)
	dir := t.TempDir()
	write := func(rel string) {
		p := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(rel), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	foreign := []string{
		"inputs/dirty.csv",
		"instance/master.csv",
		".git/HEAD",
		"jobs/notes.txt",
		"j12/notes.txt",      // not zero-padded
		"j000003x/notes.txt", // an ID plus a suffix
		"j+00004/notes.txt",  // a sign
		"j000000/notes.txt",  // sequence 0 is never allocated
	}
	for _, rel := range foreign {
		write(rel)
	}
	write("j000002/input.jsonl") // torn submit
	write("j000005/input.jsonl") // torn submit whose removal fails

	inj := faultfs.NewInjector(faultfs.OS)
	inj.FailNth(faultfs.OpRemoveAll, "j000005", 1, syscall.EIO)
	m, err := Open(faultConfig(dir, eng, inj))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer m.Close(context.Background())
	for _, rel := range foreign {
		if data, err := os.ReadFile(filepath.Join(dir, rel)); err != nil || string(data) != rel {
			t.Errorf("%s did not survive Open: %q, %v", rel, data, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "j000002")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("torn submit j000002 not removed: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "j000005", "input.jsonl")); err != nil {
		t.Errorf("torn submit whose removal failed: %v", err)
	}
	if jobs := m.List(); len(jobs) != 0 {
		t.Errorf("recovered %d jobs from foreign and torn directories", len(jobs))
	}
}

// TestJobSyncLedger pins the fsyncs one inline job makes, in order —
// the ledger in ARCHITECTURE.md's failure model, which gives each its
// reason: the input before the queued journal acknowledges the job,
// each journal's temp file and then its directory entry, and the
// results before the done journal.
func TestJobSyncLedger(t *testing.T) {
	eng, dirty, validated := testWorkload(t, 20, 10)
	dir := t.TempDir()
	inj := faultfs.NewInjector(faultfs.OS)
	m, err := Open(faultConfig(dir, eng, inj))
	if err != nil {
		t.Fatal(err)
	}
	j, err := submitTuples(m, validated, dirty[:3])
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, m, j.ID); got.State != StateDone {
		t.Fatalf("job ended %s (%s)", got.State, got.Error)
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, st := range inj.Trace() {
		if st.Op == faultfs.OpSync || st.Op == faultfs.OpSyncDir {
			rel, err := filepath.Rel(dir, st.Path)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, string(st.Op)+" "+filepath.ToSlash(rel))
		}
	}
	want := []string{
		"sync j000001/input.jsonl",
		"sync j000001/.job.json.tmp", // queued
		"syncdir j000001",
		"sync j000001/.job.json.tmp", // running
		"syncdir j000001",
		"sync j000001/results.jsonl",
		"sync j000001/.job.json.tmp", // done
		"syncdir j000001",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("sync sequence:\n got %q\nwant %q", got, want)
	}
}

// TestJobTransientRetry pins the bounded-retry path: a one-shot ENOSPC
// on the results fsync must not fail the job — the runner backs off,
// re-runs the attempt from scratch, and the artifact comes out
// byte-exact with Attempts recording the extra run.
func TestJobTransientRetry(t *testing.T) {
	eng, dirty, validated := testWorkload(t, 20, 10)
	dirty = dirty[:5]

	inj := faultfs.NewInjector(faultfs.OS)
	inj.FailNth(faultfs.OpSync, "results.jsonl", 1, syscall.ENOSPC)
	m, err := Open(faultConfig(t.TempDir(), eng, inj))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())

	j, err := submitTuples(m, validated, dirty)
	if err != nil {
		t.Fatal(err)
	}
	done := waitTerminal(t, m, j.ID)
	if done.State != StateDone {
		t.Fatalf("job ended %s (%s), want done despite transient fault", done.State, done.Error)
	}
	if done.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one transient failure, one retry)", done.Attempts)
	}
	path, err := m.ResultsPath(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	assertArtifact(t, path, expectedArtifact(t, eng, dirty, validated), "retried job")
}

// TestJobPermanentErrorNoRetry pins the classification boundary: a
// permanent input error fails the job on the first attempt — transient
// retry must never mask bad input.
func TestJobPermanentErrorNoRetry(t *testing.T) {
	eng, _, validated := testWorkload(t, 20, 5)
	dir := t.TempDir()
	root := t.TempDir()
	bad := filepath.Join(root, "bad.csv")
	if err := os.WriteFile(bad, []byte("no,such,header\n1,2,3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := faultConfig(dir, eng, nil)
	cfg.InputRoot = root
	m, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	j, err := m.SubmitFile(validated, bad, FormatCSV)
	if err != nil {
		t.Fatal(err)
	}
	failed := waitTerminal(t, m, j.ID)
	if failed.State != StateFailed {
		t.Fatalf("job ended %s, want failed", failed.State)
	}
	if failed.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (permanent errors must not retry)", failed.Attempts)
	}
}

// TestJournalCorruptionQuarantine pins restart integrity checking: a
// job.json that is not a checksum-valid envelope — its payload no
// longer matches the checksum, or there is no envelope at all — is set
// aside as <id>.corrupt: visible in stats, preserved on disk, never run.
func TestJournalCorruptionQuarantine(t *testing.T) {
	eng, dirty, validated := testWorkload(t, 20, 10)
	dirty = dirty[:2]
	corruptions := []struct {
		name    string
		corrupt func(t *testing.T, data []byte) []byte
	}{
		// Flip bytes inside the checksummed payload (still valid JSON, so
		// only the CRC can catch it).
		{"flipped payload", func(t *testing.T, data []byte) []byte {
			bad := bytes.Replace(data, []byte(`"done"`), []byte(`"dead"`), 1)
			if bytes.Equal(bad, data) {
				t.Fatalf("journal %s does not contain the expected state literal", data)
			}
			return bad
		}},
		// The envelope's inner job bytes alone: a well-formed record with
		// the right ID, but no checksum to vouch for it.
		{"bare record", func(t *testing.T, data []byte) []byte {
			var env journalEnvelope
			if err := json.Unmarshal(data, &env); err != nil {
				t.Fatal(err)
			}
			return env.Job
		}},
	}
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			m, err := Open(faultConfig(dir, eng, nil))
			if err != nil {
				t.Fatal(err)
			}
			j, err := submitTuples(m, validated, dirty)
			if err != nil {
				t.Fatal(err)
			}
			if got := waitTerminal(t, m, j.ID); got.State != StateDone {
				t.Fatalf("job ended %s", got.State)
			}
			if err := m.Close(context.Background()); err != nil {
				t.Fatal(err)
			}

			journal := filepath.Join(dir, j.ID, "job.json")
			data, err := os.ReadFile(journal)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(journal, c.corrupt(t, data), 0o644); err != nil {
				t.Fatal(err)
			}

			m2, err := Open(faultConfig(dir, eng, nil))
			if err != nil {
				t.Fatal(err)
			}
			defer m2.Close(context.Background())
			if q := m2.Stats().Quarantined; q != 1 {
				t.Fatalf("quarantined = %d, want 1", q)
			}
			if _, err := m2.Get(j.ID); !errors.Is(err, ErrNotFound) {
				t.Fatalf("corrupt job still listed: %v", err)
			}
			qdir := filepath.Join(dir, j.ID+".corrupt")
			if _, err := os.Stat(filepath.Join(qdir, "job.json")); err != nil {
				t.Fatalf("quarantine did not preserve the directory: %v", err)
			}
		})
	}
}

// TestSubmitDegradedAndRecovery pins the degraded-mode gate: after a
// transient storage fault, submissions fail fast with ErrDegraded
// (no disk writes attempted), and once the fault clears the health
// probe readmits work automatically — no restart, no operator action.
func TestSubmitDegradedAndRecovery(t *testing.T) {
	eng, dirty, validated := testWorkload(t, 20, 10)
	dirty = dirty[:2]
	dir := t.TempDir()

	inj := faultfs.NewInjector(faultfs.OS)
	var failing atomic.Bool
	inj.SetFault(func(op faultfs.Op, path string) error {
		if failing.Load() && (op == faultfs.OpWrite || op == faultfs.OpSync) {
			return syscall.ENOSPC
		}
		return nil
	})
	health := faultfs.NewHealth(faultfs.DiskProbe(inj, dir), 5*time.Millisecond)
	cfg := faultConfig(dir, eng, inj)
	cfg.Health = health
	m, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())

	failing.Store(true)
	if _, err := submitTuples(m, validated, dirty); err == nil {
		t.Fatal("submit succeeded despite injected ENOSPC")
	}
	if st := health.Status(); st.State != "degraded" {
		t.Fatalf("health after ENOSPC: %+v", st)
	}
	// While degraded, submissions fail fast with the typed error.
	if _, err := submitTuples(m, validated, dirty); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded submit = %v, want ErrDegraded", err)
	}

	// Fault clears: the next due probe readmits, no restart needed.
	failing.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	var j Job
	for {
		j, err = submitTuples(m, validated, dirty)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("submissions never recovered: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	if got := waitTerminal(t, m, j.ID); got.State != StateDone {
		t.Fatalf("post-recovery job ended %s (%s)", got.State, got.Error)
	}
	if st := health.Status(); st.State != "ok" || st.Degradations != 1 {
		t.Fatalf("health after recovery: %+v", st)
	}
}
