package pipeline

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"cerfix/internal/core"
	"cerfix/internal/dataset"
	"cerfix/internal/schema"
	"cerfix/internal/storage"
)

// CSV in → pipeline → CSV out matches the sequential fix of the same
// file written by a plain encoding/csv writer, byte for byte, at any
// worker count.
func TestCSVRoundTrip(t *testing.T) {
	eng, dirty, seed := workloadEngine(t, 40, 120)

	// Materialize the dirty tuples as CSV via a scratch table.
	tbl := storage.NewTable(dataset.CustSchema())
	for _, tu := range dirty {
		if _, err := tbl.Insert(tu); err != nil {
			t.Fatal(err)
		}
	}
	var input bytes.Buffer
	if err := tbl.WriteCSV(&input); err != nil {
		t.Fatal(err)
	}

	// Sequential reference output.
	var want bytes.Buffer
	ref := csv.NewWriter(&want)
	if err := ref.Write(dataset.CustSchema().AttrNames()); err != nil {
		t.Fatal(err)
	}
	for _, tu := range dirty {
		if err := ref.Write(eng.Chase(tu, seed).Tuple.Vals.Strings()); err != nil {
			t.Fatal(err)
		}
	}
	ref.Flush()
	if err := ref.Error(); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 8} {
		src, err := NewCSVSource(dataset.CustSchema(), bytes.NewReader(input.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		sink, err := NewCSVSink(dataset.CustSchema(), &got)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := Run(context.Background(), eng, seed, src, sink, &Options{Workers: workers, ChunkSize: 7})
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		if stats.Tuples != len(dirty) {
			t.Fatalf("workers=%d: %d tuples, want %d", workers, stats.Tuples, len(dirty))
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("workers=%d: csv output differs from sequential path", workers)
		}
	}
}

func TestCSVSourceErrors(t *testing.T) {
	sch := dataset.CustSchema()
	// Unknown column.
	if _, err := NewCSVSource(sch, strings.NewReader("FN,bogus\n")); err == nil {
		t.Fatal("unknown column accepted")
	}
	// Duplicate column.
	if _, err := NewCSVSource(sch, strings.NewReader("FN,FN\n")); err == nil {
		t.Fatal("duplicate column accepted")
	}
	// Missing columns.
	if _, err := NewCSVSource(sch, strings.NewReader("FN,LN\n")); err == nil {
		t.Fatal("partial header accepted")
	}
	// Ragged record under a good header.
	src, err := NewCSVSource(sch, strings.NewReader(
		strings.Join(sch.AttrNames(), ",")+"\nonly,two\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Next(); err == nil || err == io.EOF {
		t.Fatalf("ragged record: err = %v", err)
	}
}

// JSONL in → pipeline → JSONL out: every line decodes, order holds,
// and the fixed values match the sequential path.
func TestJSONLRoundTrip(t *testing.T) {
	eng, dirty, seed := workloadEngine(t, 30, 60)
	var input bytes.Buffer
	enc := json.NewEncoder(&input)
	for _, tu := range dirty {
		if err := enc.Encode(tu.Map()); err != nil {
			t.Fatal(err)
		}
	}
	src := NewJSONLSource(dataset.CustSchema(), &input)
	var out bytes.Buffer
	stats, err := Run(context.Background(), eng, seed, src, NewJSONLSink(&out), &Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Tuples != len(dirty) {
		t.Fatalf("%d tuples, want %d", stats.Tuples, len(dirty))
	}
	dec := json.NewDecoder(&out)
	for i := 0; i < len(dirty); i++ {
		var rec jsonlRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		want := eng.Chase(dirty[i], seed)
		if !tupleEqualMap(want.Tuple, rec.Tuple) {
			t.Fatalf("line %d: tuple %v, want %v", i, rec.Tuple, want.Tuple.Map())
		}
		if rec.Done != (want.AllValidated() && len(want.Conflicts) == 0) {
			t.Fatalf("line %d: done = %v", i, rec.Done)
		}
	}
}

func tupleEqualMap(tu *schema.Tuple, m map[string]string) bool {
	got := tu.Map()
	if len(got) != len(m) {
		return false
	}
	for k, v := range got {
		if m[k] != v {
			return false
		}
	}
	return true
}

func TestJSONLSourceErrors(t *testing.T) {
	sch := dataset.CustSchema()
	src := NewJSONLSource(sch, strings.NewReader("{not json}\n"))
	if _, err := src.Next(); err == nil {
		t.Fatal("bad json accepted")
	}
	src = NewJSONLSource(sch, strings.NewReader(`{"bogus":"x"}`+"\n"))
	if _, err := src.Next(); err == nil {
		t.Fatal("unknown attribute accepted")
	}
	// Blank lines are skipped, then EOF.
	src = NewJSONLSource(sch, strings.NewReader("\n\n"))
	if _, err := src.Next(); err != io.EOF {
		t.Fatalf("err = %v, want EOF", err)
	}
}

// The engine snapshot layer: a snapshot keeps answering from its
// frozen state while the live store absorbs new rows.
func TestSnapshotIsolation(t *testing.T) {
	eng, dirty, seed := workloadEngine(t, 20, 40)
	snap := eng.Snapshot()
	before := make([]*core.ChaseResult, len(dirty))
	for i, tu := range dirty {
		before[i] = snap.Chase(tu, seed)
	}
	liveLen := eng.Master().Len()
	// Mutate the live store heavily.
	g := dataset.NewCustomerGen(5)
	for _, e := range g.GenerateEntities(50) {
		if _, err := eng.Master().InsertValues(e.Master...); err != nil {
			t.Fatal(err)
		}
	}
	if eng.Master().Len() != liveLen+50 {
		t.Fatalf("live store len = %d", eng.Master().Len())
	}
	if snap.Master().Len() != liveLen {
		t.Fatalf("snapshot len = %d, want %d (leaked live inserts)", snap.Master().Len(), liveLen)
	}
	for i, tu := range dirty {
		after := snap.Chase(tu, seed)
		if !after.Tuple.Equal(before[i].Tuple) {
			t.Fatalf("tuple %d: snapshot answer changed after live mutation", i)
		}
	}
}
