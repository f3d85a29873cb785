package pipeline

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"cerfix/internal/core"
	"cerfix/internal/master"
	"cerfix/internal/rule"
	"cerfix/internal/schema"
	"cerfix/internal/value"
)

// matchesChase fails the test unless the run's results equal a
// per-tuple Engine.Chase of tuples, in input order: every fixed value,
// validated set, change, conflict and round count.
func matchesChase(t *testing.T, label string, eng *core.Engine, tuples []*schema.Tuple, seed schema.AttrSet, got []*Result) {
	t.Helper()
	if len(got) != len(tuples) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(tuples))
	}
	for i, r := range got {
		want := eng.Chase(tuples[i], seed)
		switch {
		case r.Seq != i:
			t.Fatalf("%s: result %d has seq %d", label, i, r.Seq)
		case !r.Input.Equal(tuples[i]):
			t.Fatalf("%s tuple %d: input %v, want %v", label, i, r.Input, tuples[i])
		case !r.Fixed.Equal(want.Tuple) || r.Fixed.Schema != want.Tuple.Schema:
			t.Fatalf("%s tuple %d: fixed %v, want %v", label, i, r.Fixed, want.Tuple)
		case r.Chase.Validated != want.Validated:
			t.Fatalf("%s tuple %d: validated %v, want %v", label, i, r.Chase.Validated, want.Validated)
		case !reflect.DeepEqual(r.Chase.Changes, want.Changes):
			t.Fatalf("%s tuple %d: changes differ\n got %+v\nwant %+v", label, i, r.Chase.Changes, want.Changes)
		case !reflect.DeepEqual(r.Chase.Conflicts, want.Conflicts):
			t.Fatalf("%s tuple %d: conflicts differ\n got %+v\nwant %+v", label, i, r.Chase.Conflicts, want.Conflicts)
		case r.Chase.Rounds != want.Rounds:
			t.Fatalf("%s tuple %d: rounds %d, want %d", label, i, r.Chase.Rounds, want.Rounds)
		}
	}
}

// narrowWorld is a two-attribute world whose tuples are all clean: the
// one rule confirms v from the master row with the same k, so every
// chase records a confirmation and no rewrite or conflict.
func narrowWorld(t *testing.T, n int) (*core.Engine, []*schema.Tuple, schema.AttrSet) {
	t.Helper()
	sch := schema.MustNew("N", schema.Str("k"), schema.Str("v"))
	rs, err := rule.ParseSet(`fill: match k~k set v := v`)
	if err != nil {
		t.Fatal(err)
	}
	st := master.New(sch)
	tuples := make([]*schema.Tuple, n)
	for i := range tuples {
		k, v := value.V(fmt.Sprintf("k%d", i)), value.V(fmt.Sprintf("v%d", i))
		if _, err := st.InsertValues(k, v); err != nil {
			t.Fatal(err)
		}
		tuples[i] = schema.MustTuple(sch, k, v)
	}
	eng, err := core.NewEngine(sch, rs, st)
	if err != nil {
		t.Fatal(err)
	}
	return eng, tuples, schema.SetOfNames(sch, "k")
}

// TestArenasAcrossRuns: batches recycled from one run to the next —
// process-wide, across engines, schemas and chunk sizes — carry
// nothing of the run that used them before. One process runs, in
// order, a run with conflicts and rewrites, a run over a narrower
// schema with clean tuples, a run after a cancelled run, and a run
// with ChunkSize 3, and each run's output equals a per-tuple
// Engine.Chase.
func TestArenasAcrossRuns(t *testing.T) {
	eng, dirty, _ := workloadEngine(t, 60, 400)
	// AC validated on noisy tuples: φ1 derives the master's AC, which
	// contradicts a noisy one, while the other rules rewrite.
	wide := schema.SetOfNames(dirty[0].Schema, "zip", "phn", "type", "item", "AC")
	run := func(label string, eng *core.Engine, tuples []*schema.Tuple, seed schema.AttrSet, opts *Options) []*Result {
		t.Helper()
		sink := &SliceSink{}
		if _, err := Run(context.Background(), eng, seed, NewSliceSource(tuples), sink, opts); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		matchesChase(t, label, eng, tuples, seed, sink.Results)
		return sink.Results
	}

	first := run("conflicts and rewrites", eng, dirty, wide, &Options{Workers: 3})
	conflicts, rewrites := 0, 0
	for _, r := range first {
		conflicts += len(r.Chase.Conflicts)
		rewrites += r.Chase.RewriteCount()
	}
	if conflicts == 0 || rewrites == 0 {
		t.Fatalf("fixture has %d conflicts and %d rewrites; both must be exercised", conflicts, rewrites)
	}

	narrow, clean, key := narrowWorld(t, 300)
	for _, r := range run("narrow clean", narrow, clean, key, &Options{Workers: 3}) {
		if len(r.Chase.Conflicts) != 0 || r.Chase.RewriteCount() != 0 || len(r.Chase.Changes) != 1 {
			t.Fatalf("narrow tuple %d: %d conflicts, %d rewrites, %d changes; want one confirmation",
				r.Seq, len(r.Chase.Conflicts), r.Chase.RewriteCount(), len(r.Chase.Changes))
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	sink := &blockingSink{blockAt: 40, gate: make(chan struct{})}
	done := make(chan error)
	go func() {
		_, err := Run(ctx, eng, wide, NewSliceSource(dirty), sink, &Options{Workers: 3})
		done <- err
	}()
	cancel()
	close(sink.gate)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
	}
	run("after a cancelled run", eng, dirty, wide, &Options{Workers: 3})

	run("chunk size 3", eng, dirty, wide, &Options{Workers: 3, ChunkSize: 3})
	run("default chunk size again", narrow, clean, key, nil)
}
