package jobs

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cerfix/internal/core"
	"cerfix/internal/dataset"
	"cerfix/internal/pipeline"
	"cerfix/internal/schema"
)

// testWorkload builds a generated CUST workload engine plus dirty
// tuples and the standard validated seed.
func testWorkload(t testing.TB, entities, inputs int) (*core.Engine, []*schema.Tuple, []string) {
	t.Helper()
	g := dataset.NewCustomerGen(7)
	w, err := g.GenerateWorkload(entities, inputs, 0.3, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(dataset.CustSchema(), dataset.DemoRules(), w.Store)
	if err != nil {
		t.Fatal(err)
	}
	return eng, w.Dirty, []string{"zip", "phn", "type", "item"}
}

// waitState polls until the job reaches want (fatal on timeout or on
// reaching a different terminal state).
func waitState(t *testing.T, m *Manager, id string, want State) Job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if j.State == want {
			return j
		}
		if j.State.Terminal() {
			t.Fatalf("job %s ended %s (error %q), want %s", id, j.State, j.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, j.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// expectedArtifact renders the byte-exact results.jsonl a job over
// the given tuples must produce: the sequential chase per tuple.
func expectedArtifact(t *testing.T, eng *core.Engine, tuples []*schema.Tuple, validated []string) [][]byte {
	t.Helper()
	sch := dataset.CustSchema()
	seed := schema.SetOfNames(sch, validated...)
	var lines [][]byte
	for i, tu := range tuples {
		res := eng.Chase(tu, seed)
		rec := NewTupleResult(sch, &pipeline.Result{Seq: i, Input: tu, Fixed: res.Tuple, Chase: res})
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, data)
	}
	return lines
}

// readArtifact returns the artifact's lines.
func readArtifact(t *testing.T, path string) [][]byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines [][]byte
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

func TestJobLifecycleInline(t *testing.T) {
	eng, dirty, validated := testWorkload(t, 30, 80)
	dir := t.TempDir()
	m, err := Open(Config{Dir: dir, Schema: dataset.CustSchema(), Snapshot: eng.Snapshot})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())

	tuples := make([]map[string]string, len(dirty))
	for i, tu := range dirty {
		tuples[i] = tu.Map()
	}
	j, err := m.SubmitInline(validated, tuples)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateQueued || j.ID == "" {
		t.Fatalf("submitted job = %+v", j)
	}
	j = waitState(t, m, j.ID, StateDone)
	if j.Attempts != 1 || j.Processed != len(dirty) {
		t.Fatalf("done job = %+v", j)
	}
	if j.Stats == nil || j.Stats.Tuples != len(dirty) {
		t.Fatalf("stats = %+v", j.Stats)
	}

	path, err := m.ResultsPath(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	got := readArtifact(t, path)
	want := expectedArtifact(t, eng, dirty, validated)
	if len(got) != len(want) {
		t.Fatalf("artifact has %d lines, want %d", len(got), len(want))
	}
	for i := range want {
		if string(got[i]) != string(want[i]) {
			t.Fatalf("artifact line %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}

	// The journal survived: a fresh manager lists the same terminal job.
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	m2, err := Open(Config{Dir: dir, Schema: dataset.CustSchema(), Snapshot: eng.Snapshot})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close(context.Background())
	j2, err := m2.Get(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j2.State != StateDone || j2.Processed != len(dirty) {
		t.Fatalf("reloaded job = %+v", j2)
	}
}

func TestJobSubmitFileCSV(t *testing.T) {
	eng, dirty, validated := testWorkload(t, 20, 40)
	dir := t.TempDir()

	// Write the dirty tuples as a CSV the daemon-side job will open.
	inDir := t.TempDir()
	csvPath := filepath.Join(inDir, "dirty.csv")
	f, err := os.Create(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	src := pipeline.NewSliceSource(dirty)
	sink, err := pipeline.NewCSVSink(dataset.CustSchema(), f)
	if err != nil {
		t.Fatal(err)
	}
	for {
		tu, err := src.Next()
		if err != nil {
			break
		}
		if err := sink.Write(&pipeline.Result{Fixed: tu}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	m, err := Open(Config{Dir: dir, Schema: dataset.CustSchema(), Snapshot: eng.Snapshot, InputRoot: inDir})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	j, err := m.SubmitFile(validated, csvPath, FormatCSV)
	if err != nil {
		t.Fatal(err)
	}
	j = waitState(t, m, j.ID, StateDone)
	if j.Processed != len(dirty) {
		t.Fatalf("processed %d, want %d", j.Processed, len(dirty))
	}

	// Paths outside the input root are refused, symlink escapes
	// included.
	outside := filepath.Join(t.TempDir(), "outside.csv")
	if err := os.WriteFile(outside, []byte("FN\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := m.SubmitFile(validated, outside, FormatCSV); err == nil {
		t.Fatal("path outside input root accepted")
	}
	link := filepath.Join(inDir, "escape.csv")
	if err := os.Symlink(outside, link); err != nil {
		t.Fatal(err)
	}
	if _, err := m.SubmitFile(validated, link, FormatCSV); err == nil {
		t.Fatal("symlink escaping input root accepted")
	}
}

// gatedSnapshot blocks job starts until released, letting tests pin a
// job in the running state.
type gatedSnapshot struct {
	eng  *core.Engine
	gate chan struct{}
}

func (g *gatedSnapshot) snapshot() *core.Engine {
	<-g.gate
	return g.eng.Snapshot()
}

// The acceptance path: jobs interrupted mid-queue and mid-run are
// journaled and re-run to completion by the next manager — the daemon
// restart story.
func TestJobRestartRecovery(t *testing.T) {
	eng, dirty, validated := testWorkload(t, 20, 50)
	dir := t.TempDir()
	gs := &gatedSnapshot{eng: eng, gate: make(chan struct{})}
	m, err := Open(Config{Dir: dir, Schema: dataset.CustSchema(), Snapshot: gs.snapshot})
	if err != nil {
		t.Fatal(err)
	}

	tuples := make([]map[string]string, len(dirty))
	for i, tu := range dirty {
		tuples[i] = tu.Map()
	}
	j1, err := m.SubmitInline(validated, tuples)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := m.SubmitInline(validated, tuples[:10])
	if err != nil {
		t.Fatal(err)
	}
	// j1 occupies the worker (blocked at snapshot), j2 sits queued.
	waitState(t, m, j1.ID, StateRunning)

	// "Daemon dies": an already-expired drain context interrupts the
	// running job, which must be re-queued, not cancelled.
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	closed := make(chan error, 1)
	go func() { closed <- m.Close(expired) }()
	close(gs.gate) // let the wedged snapshot return into the dead ctx
	if err := <-closed; !errors.Is(err, context.Canceled) {
		t.Fatalf("Close = %v, want context.Canceled", err)
	}
	for _, id := range []string{j1.ID, j2.ID} {
		j, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if j.State != StateQueued {
			t.Fatalf("job %s after shutdown = %s, want queued", id, j.State)
		}
	}

	// Next start: both recovered jobs run to completion.
	m2, err := Open(Config{Dir: dir, Schema: dataset.CustSchema(), Snapshot: eng.Snapshot})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close(context.Background())
	r1 := waitState(t, m2, j1.ID, StateDone)
	r2 := waitState(t, m2, j2.ID, StateDone)
	if r1.Attempts != 2 {
		t.Fatalf("j1 attempts = %d, want 2 (interrupted + recovered)", r1.Attempts)
	}
	if r2.Processed != 10 {
		t.Fatalf("j2 processed = %d, want 10", r2.Processed)
	}

	// The recovered run's artifact is complete and byte-exact.
	path, err := m2.ResultsPath(j1.ID)
	if err != nil {
		t.Fatal(err)
	}
	got := readArtifact(t, path)
	want := expectedArtifact(t, eng, dirty, validated)
	if len(got) != len(want) {
		t.Fatalf("recovered artifact has %d lines, want %d", len(got), len(want))
	}
	for i := range want {
		if string(got[i]) != string(want[i]) {
			t.Fatalf("recovered artifact line %d differs", i)
		}
	}
}

func TestJobCancel(t *testing.T) {
	eng, dirty, validated := testWorkload(t, 20, 50)
	gs := &gatedSnapshot{eng: eng, gate: make(chan struct{})}
	m, err := Open(Config{Dir: t.TempDir(), Schema: dataset.CustSchema(), Snapshot: gs.snapshot})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())

	tuples := make([]map[string]string, len(dirty))
	for i, tu := range dirty {
		tuples[i] = tu.Map()
	}
	j1, err := m.SubmitInline(validated, tuples)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := m.SubmitInline(validated, tuples[:5])
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, j1.ID, StateRunning)

	// Cancelling a queued job is immediate.
	if _, err := m.Cancel(j2.ID); err != nil {
		t.Fatal(err)
	}
	if j, _ := m.Get(j2.ID); j.State != StateCancelled {
		t.Fatalf("queued cancel: state = %s", j.State)
	}

	// Cancelling the running job aborts its pipeline.
	if _, err := m.Cancel(j1.ID); err != nil {
		t.Fatal(err)
	}
	close(gs.gate)
	waitState(t, m, j1.ID, StateCancelled)

	// Terminal jobs refuse another cancel; unknown IDs are not found.
	if _, err := m.Cancel(j1.ID); !errors.Is(err, ErrFinished) {
		t.Fatalf("re-cancel = %v, want ErrFinished", err)
	}
	if _, err := m.Cancel("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancel unknown = %v, want ErrNotFound", err)
	}

	// Remove purges terminal jobs (and only those): record and
	// directory both go away.
	rec, err := m.Get(j1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Remove(j1.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get(j1.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after Remove = %v, want ErrNotFound", err)
	}
	if _, err := os.Stat(filepath.Join(m.cfg.Dir, rec.ID)); !os.IsNotExist(err) {
		t.Fatalf("job dir survived Remove: %v", err)
	}
	if err := m.Remove("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Remove unknown = %v, want ErrNotFound", err)
	}
}

// Remove refuses live jobs.
func TestJobRemoveLiveRefused(t *testing.T) {
	eng, dirty, validated := testWorkload(t, 10, 20)
	gs := &gatedSnapshot{eng: eng, gate: make(chan struct{})}
	m, err := Open(Config{Dir: t.TempDir(), Schema: dataset.CustSchema(), Snapshot: gs.snapshot})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	j, err := m.SubmitInline(validated, []map[string]string{dirty[0].Map()})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, j.ID, StateRunning)
	if err := m.Remove(j.ID); err == nil {
		t.Fatal("Remove accepted a running job")
	}
	close(gs.gate)
	waitState(t, m, j.ID, StateDone)
	if err := m.Remove(j.ID); err != nil {
		t.Fatal(err)
	}
}

func TestJobSubmitValidation(t *testing.T) {
	eng, dirty, validated := testWorkload(t, 5, 5)
	dir := t.TempDir()
	m, err := Open(Config{Dir: dir, Schema: dataset.CustSchema(), Snapshot: eng.Snapshot})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())

	if _, err := m.SubmitInline(nil, []map[string]string{dirty[0].Map()}); err == nil {
		t.Fatal("empty validated list accepted")
	}
	if _, err := m.SubmitInline([]string{"bogus"}, []map[string]string{dirty[0].Map()}); err == nil {
		t.Fatal("unknown attribute accepted")
	}
	if _, err := m.SubmitInline(validated, nil); err == nil {
		t.Fatal("empty tuple list accepted")
	}
	if _, err := m.SubmitInline(validated, []map[string]string{{"bogus": "x"}}); err == nil {
		t.Fatal("tuple with unknown attribute accepted")
	}
	// A refused inline submission leaves no directory and no backlog
	// reservation behind.
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("refused submissions left %d entries (%v)", len(entries), err)
	}
	m.mu.Lock()
	reserved := m.reserved
	m.mu.Unlock()
	if reserved != 0 {
		t.Fatalf("refused submissions left %d reservations", reserved)
	}
	// No InputRoot configured: every server-side path is refused.
	if _, err := m.SubmitFile(validated, "/definitely/not/there.csv", FormatCSV); err == nil {
		t.Fatal("server-side path accepted without an input root")
	}
	if _, err := m.SubmitFile(validated, "/tmp", "parquet"); err == nil {
		t.Fatal("bad format accepted")
	}
	if _, err := m.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get unknown = %v, want ErrNotFound", err)
	}
	if _, err := m.ResultsPath("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ResultsPath unknown = %v, want ErrNotFound", err)
	}
}

// List is FIFO by ID and survives reloads in order.
func TestJobListOrder(t *testing.T) {
	eng, dirty, validated := testWorkload(t, 5, 5)
	dir := t.TempDir()
	m, err := Open(Config{Dir: dir, Schema: dataset.CustSchema(), Snapshot: eng.Snapshot})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		j, err := m.SubmitInline(validated, []map[string]string{dirty[0].Map()})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	for _, id := range ids {
		waitState(t, m, id, StateDone)
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	m2, err := Open(Config{Dir: dir, Schema: dataset.CustSchema(), Snapshot: eng.Snapshot})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close(context.Background())
	list := m2.List()
	if len(list) != 3 {
		t.Fatalf("list = %d jobs, want 3", len(list))
	}
	for i, j := range list {
		if j.ID != ids[i] {
			t.Fatalf("list[%d] = %s, want %s", i, j.ID, ids[i])
		}
	}
	// New submissions continue the ID sequence instead of colliding.
	j4, err := m2.SubmitInline(validated, []map[string]string{dirty[0].Map()})
	if err != nil {
		t.Fatal(err)
	}
	if j4.ID <= ids[2] {
		t.Fatalf("post-reload ID %s does not extend %s", j4.ID, ids[2])
	}
	waitState(t, m2, j4.ID, StateDone)
}
