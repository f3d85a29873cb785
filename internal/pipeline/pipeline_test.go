package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"testing"
	"time"

	"cerfix/internal/core"
	"cerfix/internal/dataset"
	"cerfix/internal/master"
	"cerfix/internal/schema"
)

// workloadEngine builds a generated CUST workload plus its engine.
func workloadEngine(t testing.TB, entities, inputs int) (*core.Engine, []*schema.Tuple, schema.AttrSet) {
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
	return eng, w.Dirty, schema.SetOfNames(dataset.CustSchema(), "zip", "phn", "type", "item")
}

// TestPipelineDeterministic is the core guarantee: at 8 workers the
// pipeline's output — every fixed value, validated set, change list,
// conflict list, in input order — equals the sequential engine path
// byte for byte, on the rule-index and the scan access paths.
func TestPipelineDeterministic(t *testing.T) {
	eng, dirty, seed := workloadEngine(t, 60, 400)

	for _, mode := range []master.LookupMode{master.ModeRuleIndex, master.ModeScan} {
		eng.Master().SetMode(mode)
		// Sequential reference.
		want := make([]*core.ChaseResult, len(dirty))
		for i, tu := range dirty {
			want[i] = eng.Chase(tu, seed)
		}

		for _, workers := range []int{1, 3, 8} {
			label := fmt.Sprintf("%s workers=%d", mode, workers)
			sink := &SliceSink{}
			stats, err := Run(context.Background(), eng, seed, NewSliceSource(dirty), sink,
				&Options{Workers: workers, ChunkSize: 5, Window: 40})
			if err != nil {
				t.Fatal(err)
			}
			if stats.Tuples != len(dirty) || stats.Workers != workers {
				t.Fatalf("%s: stats = %+v", label, stats)
			}
			if len(sink.Results) != len(dirty) {
				t.Fatalf("%s: %d results, want %d", label, len(sink.Results), len(dirty))
			}
			for i, r := range sink.Results {
				if r.Seq != i {
					t.Fatalf("%s: result %d has seq %d (order broken)", label, i, r.Seq)
				}
				if !r.Fixed.Equal(want[i].Tuple) {
					t.Fatalf("%s tuple %d: fixed %v, want %v", label, i, r.Fixed, want[i].Tuple)
				}
				if r.Chase.Validated != want[i].Validated {
					t.Fatalf("%s tuple %d: validated %v, want %v",
						label, i, r.Chase.Validated, want[i].Validated)
				}
				if !reflect.DeepEqual(r.Chase.Changes, want[i].Changes) {
					t.Fatalf("%s tuple %d: changes differ\n got %+v\nwant %+v",
						label, i, r.Chase.Changes, want[i].Changes)
				}
				if !reflect.DeepEqual(r.Chase.Conflicts, want[i].Conflicts) {
					t.Fatalf("%s tuple %d: conflicts differ", label, i)
				}
				if r.Chase.Rounds != want[i].Rounds {
					t.Fatalf("%s tuple %d: rounds %d, want %d",
						label, i, r.Chase.Rounds, want[i].Rounds)
				}
			}
		}
	}
}

// The stats mirror what a sequential loop would count.
func TestPipelineStats(t *testing.T) {
	eng, dirty, seed := workloadEngine(t, 40, 200)
	wantStats := Stats{Workers: 4}
	for _, tu := range dirty {
		res := eng.Chase(tu, seed)
		wantStats.Tuples++
		if res.AllValidated() && len(res.Conflicts) == 0 {
			wantStats.FullyValidated++
		}
		if len(res.Conflicts) > 0 {
			wantStats.WithConflicts++
		}
		wantStats.CellsRewritten += len(res.Rewrites())
	}
	got, err := Run(context.Background(), eng, seed, NewSliceSource(dirty), Discard, &Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got != wantStats {
		t.Fatalf("stats = %+v, want %+v", got, wantStats)
	}
}

// A tiny in-flight window on a large input must still complete (the
// backpressure bound throttles, never deadlocks) and preserve order.
func TestPipelineTinyWindow(t *testing.T) {
	eng, dirty, seed := workloadEngine(t, 30, 500)
	sink := &SliceSink{}
	stats, err := Run(context.Background(), eng, seed, NewSliceSource(dirty), sink,
		&Options{Workers: 8, Window: 1, ChunkSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Tuples != len(dirty) {
		t.Fatalf("processed %d of %d", stats.Tuples, len(dirty))
	}
	for i, r := range sink.Results {
		if r.Seq != i {
			t.Fatalf("result %d has seq %d", i, r.Seq)
		}
	}
}

// Source errors abort the run and surface to the caller.
func TestPipelineSourceError(t *testing.T) {
	eng, dirty, seed := workloadEngine(t, 10, 10)
	src := &errAfterSource{tuples: dirty, errAt: 5}
	_, err := Run(context.Background(), eng, seed, src, Discard, &Options{Workers: 4})
	if err == nil || !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want errBoom", err)
	}
}

var errBoom = errors.New("boom")

type errAfterSource struct {
	tuples []*schema.Tuple
	pos    int
	errAt  int
}

func (s *errAfterSource) Next() (*schema.Tuple, error) {
	if s.pos >= s.errAt {
		return nil, errBoom
	}
	if s.pos >= len(s.tuples) {
		return nil, io.EOF
	}
	tu := s.tuples[s.pos]
	s.pos++
	return tu, nil
}

// Sink errors abort the run, even with many tuples still in flight.
func TestPipelineSinkError(t *testing.T) {
	eng, dirty, seed := workloadEngine(t, 30, 300)
	n := 0
	sink := SinkFunc(func(*Result) error {
		n++
		if n == 10 {
			return errBoom
		}
		return nil
	})
	_, err := Run(context.Background(), eng, seed, NewSliceSource(dirty), sink, &Options{Workers: 8, Window: 16})
	if err == nil || !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want errBoom", err)
	}
}

// An empty source is a clean no-op.
func TestPipelineEmpty(t *testing.T) {
	eng, _, seed := workloadEngine(t, 5, 1)
	stats, err := Run(context.Background(), eng, seed, NewSliceSource(nil), Discard, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Tuples != 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

// The pipeline against a snapshot engine is unaffected by concurrent
// mutation of the live system (run under -race this is the isolation
// proof at the engine layer).
func TestPipelineAgainstSnapshotUnderMutation(t *testing.T) {
	eng, dirty, seed := workloadEngine(t, 40, 200)
	snap := eng.Snapshot()
	want := make([]*core.ChaseResult, len(dirty))
	for i, tu := range dirty {
		want[i] = snap.Chase(tu, seed)
	}
	stop := make(chan struct{})
	go func() {
		g := dataset.NewCustomerGen(99)
		rows := g.GenerateEntities(200)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := eng.Master().InsertValues(rows[i%len(rows)].Master...); err != nil {
				panic(err)
			}
		}
	}()
	sink := &SliceSink{}
	_, err := Run(context.Background(), snap, seed, NewSliceSource(dirty), sink, &Options{Workers: 8})
	close(stop)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range sink.Results {
		if !r.Fixed.Equal(want[i].Tuple) {
			t.Fatalf("tuple %d drifted under live mutation", i)
		}
	}
}

// BenchmarkPipeline measures batch throughput at several worker
// counts (CI's bench smoke job runs this at -benchtime=1x).
func BenchmarkPipeline(b *testing.B) {
	eng, dirty, seed := workloadEngine(b, 100, 1000)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Run(context.Background(), eng, seed, NewSliceSource(dirty), Discard, &Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// blockingSink parks mid-stream until released, holding the pipeline
// at its backpressure bound so cancellation arrives while every stage
// is full.
type blockingSink struct {
	n       int
	blockAt int
	gate    chan struct{}
}

func (s *blockingSink) Write(*Result) error {
	s.n++
	if s.n == s.blockAt {
		<-s.gate
	}
	return nil
}

// Cancelling mid-run must release all admission tokens, drain the
// workers and return the partial stats — no deadlock even when the
// sink is wedged at the moment of cancellation (run under -race).
func TestPipelineCancelMidStream(t *testing.T) {
	eng, dirty, seed := workloadEngine(t, 30, 500)
	ctx, cancel := context.WithCancel(context.Background())
	sink := &blockingSink{blockAt: 20, gate: make(chan struct{})}
	done := make(chan struct{})
	var stats Stats
	var err error
	go func() {
		defer close(done)
		stats, err = Run(ctx, eng, seed, NewSliceSource(dirty), sink,
			&Options{Workers: 4, Window: 8, ChunkSize: 2})
	}()
	cancel()
	close(sink.gate) // release the wedged sink so the abort can drain
	<-done
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stats.Tuples >= len(dirty) {
		t.Fatalf("processed all %d tuples despite cancellation", stats.Tuples)
	}
}

// blockingSource serves its tuples up to blockAt, then blocks in Next
// until release is closed, and then reports the end of the stream.
type blockingSource struct {
	tuples  []*schema.Tuple
	next    int
	blockAt int
	blocked chan struct{} // closed when Next blocks
	release chan struct{}
}

func (s *blockingSource) Next() (*schema.Tuple, error) {
	if s.next < s.blockAt {
		s.next++
		return s.tuples[s.next-1], nil
	}
	if s.next == s.blockAt {
		s.next++
		close(s.blocked)
		<-s.release
	}
	return nil, io.EOF
}

// Cancelling a run whose source blocks in Next must not wait on the
// source: Run returns ctx's error while Next is still blocked, and
// once the source lets go, the reader exits too and no goroutine of
// the run is left.
func TestPipelineCancelBlockedSource(t *testing.T) {
	eng, dirty, seed := workloadEngine(t, 30, 200)
	baseline := runtime.NumGoroutine()
	src := &blockingSource{tuples: dirty, blockAt: 100, blocked: make(chan struct{}), release: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, err := Run(ctx, eng, seed, src, Discard, &Options{Workers: 2})
		errc <- err
	}()
	<-src.blocked
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		close(src.release)
		t.Fatal("Run still waits on a source blocked in Next 1s after cancellation")
	}
	close(src.release)
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the source was released, %d before the run", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A context cancelled before Run starts is rejected synchronously:
// zero tuples processed, no dependence on watcher scheduling.
func TestPipelineCancelBeforeStart(t *testing.T) {
	eng, dirty, seed := workloadEngine(t, 10, 200)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stats, err := Run(ctx, eng, seed, NewSliceSource(dirty), Discard,
		&Options{Workers: 2, Window: 4, ChunkSize: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stats.Tuples != 0 {
		t.Fatalf("processed %d tuples on a pre-cancelled context, want 0", stats.Tuples)
	}
}
