package cerfix

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"io"
	"log"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// refWAL parses a v3 log as its format defines it, apart from
// replayWAL: blank lines are skipped, the first record must be the
// header, and then each batch is a run of ins records sealed by a
// commit whose count and CRC32 (over the records' lines, newlines
// included) match. It returns the cells of each verified batch's ins
// records up to the first line that continues no batch, the offset
// just past the last verified commit, and whether the header names
// another version.
func refWAL(data []byte) (batches [][][]string, end int, foreign bool) {
	type record struct {
		Op    string   `json:"op"`
		Row   int64    `json:"row"`
		Cells []string `json:"cells"`
		V     int      `json:"v"`
		N     int      `json:"n"`
		CRC   uint32   `json:"crc"`
	}
	var open [][]string
	var sum uint32
	off, header := 0, false
	for off < len(data) {
		line, rest, _ := bytes.Cut(data[off:], []byte("\n"))
		raw := data[off : len(data)-len(rest)]
		off += len(raw)
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec record
		if json.Unmarshal(line, &rec) != nil {
			return batches, end, false
		}
		switch {
		case !header && rec.Op == "wal" && rec.V != walVersion:
			return nil, 0, true
		case !header && rec.Op == "wal":
			header = true
		case !header:
			return nil, 0, false
		case rec.Op == "ins":
			open = append(open, rec.Cells)
			sum = crc32.Update(sum, crc32.IEEETable, raw)
		case rec.Op == "commit" && rec.N == len(open) && rec.CRC == sum:
			batches = append(batches, open)
			open, sum, end = nil, 0, off
		default:
			return batches, end, false
		}
	}
	return batches, end, false
}

// FuzzWALReplay writes each input as the wal.jsonl of a saved demo
// checkpoint and loads it. Load must not panic. When it succeeds, the
// rows after the checkpoint are, in order, exactly the ins rows of the
// batches refWAL verifies, so no batch is applied in part; a header of
// another version must have failed the load; and a quarantine holds a
// suffix of the input that starts at a line boundary after the last
// applied batch. The seeds are the logs the WAL tests write: one
// batch, two batches, a torn tail, a bad checksum, no header, a stray
// header and a v2 header.
func FuzzWALReplay(f *testing.F) {
	log.SetOutput(io.Discard) // replay logs every torn tail and quarantine
	f.Cleanup(func() { log.SetOutput(os.Stderr) })

	sys := demoSystem(f)
	dir := filepath.Join(f.TempDir(), "instance")
	if err := sys.Save(dir); err != nil {
		f.Fatal(err)
	}
	base := sys.Master().Len()
	// Inputs replay, one at a time, in a copy of the checkpoint.
	work := f.TempDir()
	for _, name := range []string{"manifest.json", "rules.txt", "master.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err == nil {
			err = os.WriteFile(filepath.Join(work, name), data, 0o644)
		}
		if err != nil {
			f.Fatal(err)
		}
	}
	appendRow := func(vals ...string) []byte {
		if err := sys.AddMasterRow(vals...); err != nil {
			f.Fatal(err)
		}
		if err := sys.Save(dir); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, walFile))
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	one := appendRow("Walter", "White", "505", "1", "2", "3", "4", "NM 87104", "07/09/58", "M")
	two := appendRow("Jesse", "Pinkman", "505", "1", "2", "3", "4", "NM 87104", "24/09/84", "M")
	header, _, _ := bytes.Cut(one, []byte("\n"))
	badCRC := bytes.Clone(two)
	badCRC[bytes.Index(badCRC, []byte(`"row":`))+len(`"row":`)]++
	f.Add(one)
	f.Add(two)
	f.Add(two[:len(two)-4])
	f.Add(badCRC)
	f.Add(two[len(header)+1:])
	f.Add(slices.Concat(one, header, []byte("\n"), two[len(one):]))
	f.Add(bytes.Replace(two, []byte(`"v":3`), []byte(`"v":2`), 1))

	f.Fuzz(func(t *testing.T, wal []byte) {
		if err := os.Remove(filepath.Join(work, walQuarantineFile)); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(work, walFile), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(work)
		ref, end, foreign := refWAL(wal)
		if err != nil {
			return
		}
		if foreign {
			t.Fatal("a log with a header of another version loaded")
		}
		info := loaded.LoadInfo()
		if info.WALBatches != len(ref) {
			t.Fatalf("applied %d batches, the reference verifies %d", info.WALBatches, len(ref))
		}
		var want [][]string
		for _, b := range ref {
			want = append(want, b...)
		}
		rows := loaded.Master().All()[base:]
		if len(rows) != len(want) || info.WALRows != len(want) {
			t.Fatalf("%d rows after the checkpoint (WALRows %d), want the %d of %d verified batches",
				len(rows), info.WALRows, len(want), len(ref))
		}
		for i, tu := range rows {
			if !slices.Equal(tu.Vals.Strings(), want[i]) {
				t.Fatalf("row %d = %q, want %q", i, tu.Vals.Strings(), want[i])
			}
		}
		if info.WALCorrupt && info.WALQuarantine != "" {
			q, err := os.ReadFile(info.WALQuarantine)
			if err != nil {
				t.Fatal(err)
			}
			start := len(wal) - len(q)
			if !bytes.HasSuffix(wal, q) || start < end || (start > 0 && wal[start-1] != '\n') {
				t.Fatalf("quarantine %q is not a suffix at a line boundary after the applied prefix (%d bytes)", q, end)
			}
		}
	})
}
