package cerfix

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cerfix/internal/dataset"
	"cerfix/internal/pipeline"
	"cerfix/internal/schema"
	"cerfix/internal/value"
)

func readFileT(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// A Save after nothing but inserts must append to the WAL and leave
// the checkpoint files byte-for-byte untouched; Load must replay the
// log and report it in its provenance.
func TestSaveAppendsWALAfterInserts(t *testing.T) {
	sys := demoSystem(t)
	dir := filepath.Join(t.TempDir(), "instance")
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	csvBefore := readFileT(t, filepath.Join(dir, "master.csv"))
	baseRows := sys.Master().Len()

	if err := sys.AddMasterRow("Walter", "White", "505", "5550001", "5550002", "Negra Arroyo", "Albuquerque", "NM 87104", "07/09/58", "M"); err != nil {
		t.Fatal(err)
	}
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csvBefore, readFileT(t, filepath.Join(dir, "master.csv"))) {
		t.Fatal("incremental save rewrote master.csv")
	}
	wal := readFileT(t, filepath.Join(dir, walFile))
	if len(wal) == 0 {
		t.Fatal("incremental save wrote no WAL")
	}
	if !strings.Contains(string(wal), `"op":"ins"`) || !strings.Contains(string(wal), `"cells":["Walter","White",`) {
		t.Fatalf("WAL missing expected records:\n%s", wal)
	}

	// A second append batch lands in the same log, although every read
	// path ran between the inserts: none of them may move the table's
	// generation, or the pure-append proof fails and Save checkpoints.
	readAll := func() {
		t.Helper()
		sys.SnapshotEngine()
		sys.Regions(2)
		sys.Fix(dataset.DemoInputFig3(), []string{"zip", "phn", "type", "item"})
		sys.CheckConsistency()
		sys.MemStats()
		sys.Master().All()
		seed := schema.SetOfNames(sys.InputSchema(), "zip", "phn", "type", "item")
		src := pipeline.NewSliceSource([]*schema.Tuple{dataset.DemoInputFig3(), dataset.DemoInputExample1()})
		if _, err := pipeline.Run(context.Background(), sys.SnapshotEngine(), seed, src, &pipeline.SliceSink{}, nil); err != nil {
			t.Fatal(err)
		}
	}
	readAll()
	if err := sys.AddMasterRow("Jesse", "Pinkman", "505", "5550003", "5550004", "Margo", "Albuquerque", "NM 87104", "24/09/84", "M"); err != nil {
		t.Fatal(err)
	}
	readAll()
	if err := sys.AddMasterRow("Saul", "Goodman", "505", "5550005", "5550006", "Juan Tabo", "Albuquerque", "NM 87111", "12/11/60", "M"); err != nil {
		t.Fatal(err)
	}
	readAll()
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csvBefore, readFileT(t, filepath.Join(dir, "master.csv"))) {
		t.Fatal("second incremental save rewrote master.csv")
	}
	if walNow := readFileT(t, filepath.Join(dir, walFile)); len(walNow) <= len(wal) || !bytes.HasPrefix(walNow, wal) {
		t.Fatalf("second save did not append to the WAL (%d bytes before, %d after)", len(wal), len(walNow))
	}

	// Saving with no changes at all is a durable no-op.
	walBefore := readFileT(t, filepath.Join(dir, walFile))
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(walBefore, readFileT(t, filepath.Join(dir, walFile))) {
		t.Fatal("no-op save grew the WAL")
	}

	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Master().Len() != baseRows+3 {
		t.Fatalf("replayed %d rows, want %d", loaded.Master().Len(), baseRows+3)
	}
	rhs, _, st := loaded.Master().UniqueRHS([]string{"zip"}, value.List{"NM 87111"}, []string{"FN"})
	if st.String() != "unique" || rhs[0] != "Saul" {
		t.Fatalf("replayed row not indexed: %v %v", rhs, st)
	}
	info := loaded.LoadInfo()
	if info == nil || info.UsedBackup || info.Dir != dir {
		t.Fatalf("bad provenance: %+v", info)
	}
	if info.WALRows != 3 || info.WALBytes != int64(len(walBefore)) {
		t.Fatalf("bad WAL provenance: %+v", info)
	}

	// A loaded system has no append cursor (the table generation it
	// proves pure-append against is process-local): its first save
	// must checkpoint and clear the WAL.
	if err := loaded.AddMasterRow("Kim", "Wexler", "505", "5550007", "5550008", "Marble", "Albuquerque", "NM 87102", "13/02/68", "F"); err != nil {
		t.Fatal(err)
	}
	if err := loaded.Save(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, walFile)); !os.IsNotExist(err) {
		t.Fatalf("checkpoint left a stale WAL behind: %v", err)
	}
	final, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if final.Master().Len() != baseRows+4 {
		t.Fatalf("post-checkpoint load: %d rows, want %d", final.Master().Len(), baseRows+4)
	}
}

// Systems that apply the same inserts write the same WAL bytes: each
// row is written as its cell strings, in insertion order.
func TestWALBytesDeterministic(t *testing.T) {
	var wals [][]byte
	for run := 0; run < 3; run++ {
		sys := demoSystem(t)
		dir := filepath.Join(t.TempDir(), "instance")
		if err := sys.Save(dir); err != nil {
			t.Fatal(err)
		}
		for _, e := range dataset.NewCustomerGen(5).GenerateEntities(20) {
			if err := sys.AddMasterRow(e.Master.Strings()...); err != nil {
				t.Fatal(err)
			}
		}
		if err := sys.Save(dir); err != nil {
			t.Fatal(err)
		}
		wals = append(wals, readFileT(t, filepath.Join(dir, walFile)))
	}
	for run := 1; run < len(wals); run++ {
		if !bytes.Equal(wals[0], wals[run]) {
			t.Fatalf("run %d wrote different WAL bytes than run 0:\n%s\n---\n%s", run, wals[run], wals[0])
		}
	}
}

// A crash mid-append leaves a truncated final line; Load must apply
// every complete record and ignore the tail.
func TestWALTornTailTolerated(t *testing.T) {
	sys := demoSystem(t)
	dir := filepath.Join(t.TempDir(), "instance")
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	baseRows := sys.Master().Len()
	if err := sys.AddMasterRow("Walter", "White", "505", "1", "2", "3", "4", "NM 87104", "07/09/58", "M"); err != nil {
		t.Fatal(err)
	}
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddMasterRow("Jesse", "Pinkman", "505", "1", "2", "3", "4", "NM 87104", "24/09/84", "M"); err != nil {
		t.Fatal(err)
	}
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}

	walPath := filepath.Join(dir, walFile)
	intact := readFileT(t, walPath)

	// Tear inside the last record (drop its closing bytes).
	if err := os.WriteFile(walPath, intact[:len(intact)-4], 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatalf("torn tail broke the load: %v", err)
	}
	if loaded.Master().Len() != baseRows+1 {
		t.Fatalf("torn-tail replay got %d rows, want %d", loaded.Master().Len(), baseRows+1)
	}
	if info := loaded.LoadInfo(); !info.WALTornTail || info.WALCorrupt {
		t.Fatalf("torn tail misreported: %+v", info)
	}

	// Garbage appended after valid records (e.g. a partially flushed
	// next batch) is ignored the same way.
	torn := append(append([]byte{}, intact...), []byte(`{"op":"ins","row":99,"ce`)...)
	if err := os.WriteFile(walPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err = Load(dir)
	if err != nil {
		t.Fatalf("garbage tail broke the load: %v", err)
	}
	if loaded.Master().Len() != baseRows+2 {
		t.Fatalf("garbage-tail replay got %d rows, want %d", loaded.Master().Len(), baseRows+2)
	}
	if info := loaded.LoadInfo(); !info.WALTornTail || info.WALCorrupt {
		t.Fatalf("garbage tail misreported: %+v", info)
	}

	// A decodable but uncommitted record at the tail (e.g. a batch
	// whose commit never landed) is discarded whole — acknowledged
	// data always carries a commit, so nothing acknowledged is lost.
	bad := append(append([]byte{}, intact...), []byte("{\"op\":\"ins\",\"row\":99,\"cells\":[9999999,0,0,0,0,0,0,0,0,0]}\n")...)
	if err := os.WriteFile(walPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err = Load(dir)
	if err != nil {
		t.Fatalf("uncommitted tail record broke the load: %v", err)
	}
	if loaded.Master().Len() != baseRows+2 {
		t.Fatalf("uncommitted-tail replay got %d rows, want %d", loaded.Master().Len(), baseRows+2)
	}
	if info := loaded.LoadInfo(); !info.WALTornTail {
		t.Fatalf("uncommitted tail misreported: %+v", info)
	}
}

// Real corruption — a committed batch whose bytes no longer match its
// commit checksum — must not be silently absorbed: replay stops at the
// first bad checksum (later batches stay unapplied even if they look
// valid), the unapplied tail is preserved for inspection, the load
// succeeds on the verified prefix, and the provenance reports it.
func TestWALCorruptBatchQuarantined(t *testing.T) {
	sys := demoSystem(t)
	dir := filepath.Join(t.TempDir(), "instance")
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	baseRows := sys.Master().Len()
	if err := sys.AddMasterRow("Walter", "White", "505", "1", "2", "3", "4", "NM 87104", "07/09/58", "M"); err != nil {
		t.Fatal(err)
	}
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddMasterRow("Jesse", "Pinkman", "505", "1", "2", "3", "4", "NM 87104", "24/09/84", "M"); err != nil {
		t.Fatal(err)
	}
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}

	walPath := filepath.Join(dir, walFile)
	intact := readFileT(t, walPath)
	// Flip a byte inside the first batch: bump the informational row id
	// of the first ins record. The line stays valid JSON, so only the
	// commit checksum can catch the damage.
	i := bytes.Index(intact, []byte(`"row":`))
	if i < 0 {
		t.Fatalf("no ins record in WAL:\n%s", intact)
	}
	bad := append([]byte{}, intact...)
	digit := &bad[i+len(`"row":`)]
	if *digit == '9' {
		*digit = '0'
	} else {
		*digit++
	}
	if err := os.WriteFile(walPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}

	loaded, err := Load(dir)
	if err != nil {
		t.Fatalf("corrupt batch failed the load instead of quarantining: %v", err)
	}
	// Both batches are unapplied: the first is corrupt, the second is
	// beyond the first bad checksum.
	if loaded.Master().Len() != baseRows {
		t.Fatalf("corrupt replay got %d rows, want %d", loaded.Master().Len(), baseRows)
	}
	info := loaded.LoadInfo()
	if !info.WALCorrupt || info.WALQuarantine == "" || info.WALRows != 0 {
		t.Fatalf("corruption not reported: %+v", info)
	}
	// The unapplied tail is preserved byte-for-byte for inspection.
	q := readFileT(t, info.WALQuarantine)
	if !bytes.Contains(q, []byte(`"op":"commit"`)) || !bytes.HasSuffix(bad, q) {
		t.Fatalf("quarantined tail is not the unapplied suffix (%d bytes)", len(q))
	}
}

// A log that does not open with a header record is not a WAL this
// code wrote: replay must neither apply it nor drop it as a torn tail,
// but report it corrupt and preserve every byte, loading the
// checkpoint.
func TestWALMissingHeaderQuarantined(t *testing.T) {
	sys := demoSystem(t)
	dir := filepath.Join(t.TempDir(), "instance")
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	baseRows := sys.Master().Len()
	walPath := filepath.Join(dir, walFile)
	headerless := []byte(`{"op":"dict","defs":[{"id":1,"s":"Walter"}]}` + "\n" +
		`{"op":"ins","row":1,"cells":[1,1,1,1,1,1,1,1,1,1]}` + "\n")
	if err := os.WriteFile(walPath, headerless, 0o644); err != nil {
		t.Fatal(err)
	}

	loaded, err := Load(dir)
	if err != nil {
		t.Fatalf("headerless WAL failed the load instead of quarantining: %v", err)
	}
	if loaded.Master().Len() != baseRows {
		t.Fatalf("headerless WAL applied: %d rows, want %d", loaded.Master().Len(), baseRows)
	}
	info := loaded.LoadInfo()
	if !info.WALCorrupt || info.WALTornTail || info.WALQuarantine == "" || info.WALRows != 0 {
		t.Fatalf("headerless WAL misreported: %+v", info)
	}
	if q := readFileT(t, info.WALQuarantine); !bytes.Equal(q, headerless) {
		t.Fatalf("quarantine holds %q, want the whole log", q)
	}
}

// A checkpoint that follows a quarantine carries the quarantined tail
// into the new instance: LoadInfo keeps naming the file, and its bytes
// are the only copy of what replay could not apply.
func TestWALQuarantineSurvivesCheckpoint(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "instance")
	if err := demoSystem(t).Save(dir); err != nil {
		t.Fatal(err)
	}
	headerless := []byte(`{"op":"ins","row":4,"cells":["Walter"]}` + "\n" +
		`{"op":"commit","n":1,"crc":0}` + "\n")
	if err := os.WriteFile(filepath.Join(dir, walFile), headerless, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	q := loaded.LoadInfo().WALQuarantine
	if q != filepath.Join(dir, walFile+".corrupt") || !bytes.Equal(readFileT(t, q), headerless) {
		t.Fatalf("quarantine at %q, want the whole log at %s.corrupt", q, walFile)
	}
	if err := loaded.Save(dir); err != nil {
		t.Fatal(err)
	}
	if got := readFileT(t, q); !bytes.Equal(got, headerless) {
		t.Fatalf("checkpoint changed the quarantine to %q", got)
	}
	if _, err := os.Stat(filepath.Join(dir, walFile)); !os.IsNotExist(err) {
		t.Fatalf("checkpoint left the quarantined log in place: %v", err)
	}
}

// JSON strings carry only valid UTF-8, so a new row with a cell that is
// not valid UTF-8 must reach the checkpoint instead of the WAL: Load
// then returns its bytes exactly, as it does for a checkpointed row.
func TestSaveNonUTF8RowRoundTrips(t *testing.T) {
	sys := demoSystem(t)
	dir := filepath.Join(t.TempDir(), "instance")
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	csvBefore := readFileT(t, filepath.Join(dir, "master.csv"))
	const fn = "Ren\xe9e"
	if err := sys.AddMasterRow(fn, "Roux", "505", "5550001", "5550002", "Rue", "Lyon", "LY1 1AA", "01/01/70", "F"); err != nil {
		t.Fatal(err)
	}
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(csvBefore, readFileT(t, filepath.Join(dir, "master.csv"))) {
		t.Fatal("save of a non-UTF-8 row did not rewrite master.csv")
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	rhs, _, st := loaded.Master().UniqueRHS([]string{"zip"}, value.List{"LY1 1AA"}, []string{"FN"})
	if st.String() != "unique" || rhs[0] != fn {
		t.Fatalf("reloaded FN = %q (%v), want %q", rhs, st, fn)
	}
}

// Updates, deletes and rule edits are not pure appends: Save must fall
// back to a full checkpoint that rewrites master.csv and retires the
// WAL.
func TestNonAppendMutationForcesCheckpoint(t *testing.T) {
	sys := demoSystem(t)
	dir := filepath.Join(t.TempDir(), "instance")
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddMasterRow("Walter", "White", "505", "1", "2", "3", "4", "NM 87104", "07/09/58", "M"); err != nil {
		t.Fatal(err)
	}
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, walFile)); err != nil {
		t.Fatalf("expected a WAL after insert-only save: %v", err)
	}

	// An in-place update breaks the pure-append window.
	row := sys.Master().Table().All()[0]
	row.Set("city", "Rewritten")
	if err := sys.Master().Table().Update(row); err != nil {
		t.Fatal(err)
	}
	csvBefore := readFileT(t, filepath.Join(dir, "master.csv"))
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(csvBefore, readFileT(t, filepath.Join(dir, "master.csv"))) {
		t.Fatal("checkpoint did not rewrite master.csv after an update")
	}
	if _, err := os.Stat(filepath.Join(dir, walFile)); !os.IsNotExist(err) {
		t.Fatalf("checkpoint left the old WAL in place: %v", err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tu := range loaded.Master().Table().All() {
		if tu.Get("city") == "Rewritten" {
			found = true
		}
	}
	if !found {
		t.Fatal("checkpoint lost the updated row")
	}

	// A rule edit also forces a checkpoint even with no table change.
	if err := sys.AddRule(`extra: match AC~AC set city := city`); err != nil {
		t.Fatal(err)
	}
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	reloaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(reloaded.Rules(), "extra") {
		t.Fatal("rule edit not persisted by forced checkpoint")
	}
}
