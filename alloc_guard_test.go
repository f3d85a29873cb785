//go:build !race

// External test package: the guards drive internal/experiments and
// the internal packages, never cerfix's unexported state.
package cerfix_test

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"cerfix/internal/dataset"
	"cerfix/internal/experiments"
	"cerfix/internal/pipeline"
	"cerfix/internal/schema"
)

// TestChaseSteadyStateZeroAlloc is the allocation companion of
// BenchmarkChaseSingle: once a Chaser's scratch buffers are warm, the
// full Fig. 3 chase on the happy path (rule-index access, no
// conflicts) must perform ZERO heap allocations per tuple. Guarded out
// under the race detector, whose instrumentation allocates; the
// finer-grained variant
// (live vs snapshot engines) lives in internal/core's alloc suite.
func TestChaseSteadyStateZeroAlloc(t *testing.T) {
	eng, err := experiments.DemoEngine()
	if err != nil {
		t.Fatal(err)
	}
	ch := eng.NewChaser()
	in := dataset.DemoInputFig3()
	seed := schema.SetOfNames(dataset.CustSchema(), "AC", "phn", "type", "item", "zip")
	ok := true
	for i := 0; i < 8; i++ { // warm the scratch buffers
		ok = ok && ch.ChaseScratch(in, seed).AllValidated()
	}
	avg := testing.AllocsPerRun(200, func() {
		ok = ok && ch.ChaseScratch(in, seed).AllValidated()
	})
	if !ok {
		t.Fatal("chase incomplete")
	}
	if avg != 0 {
		t.Errorf("steady-state chase allocates %v per tuple, want 0", avg)
	}
}

// TestJSONLScanLowAlloc pins the simd-scanned JSONL fast path to at
// most one heap allocation per line: the single backing string all of
// a line's decoded values share. Per-stream fixed costs (constructor
// maps, read buffer) are cancelled by differencing two stream lengths,
// leaving the pure marginal cost of a line.
func TestJSONLScanLowAlloc(t *testing.T) {
	sch := dataset.CustSchema()
	const lines = 1000
	var buf bytes.Buffer
	for i := 0; i < 2*lines; i++ {
		fmt.Fprintf(&buf, `{"FN":"Bob","LN":"customer %d","AC":"020","phn":"079172485","str":"High St.","city":"Edi","zip":"EH4 8LE","item":"iPhone","type":"1"}`+"\n", i)
	}
	double := buf.String()
	drain := func(data string, want int) func() {
		return func() {
			src := pipeline.NewJSONLSource(sch, strings.NewReader(data))
			n := 0
			for {
				_, err := src.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				n++
			}
			if n != want {
				t.Fatalf("decoded %d lines, want %d", n, want)
			}
		}
	}
	single := double[:strings.IndexByte(double[len(double)/2:], '\n')+len(double)/2+1]
	shortN := strings.Count(single, "\n")
	drain(double, 2*lines)() // warm the value interner
	perLine := (testing.AllocsPerRun(20, drain(double, 2*lines)) -
		testing.AllocsPerRun(20, drain(single, shortN))) / float64(2*lines-shortN)
	if perLine > 1 {
		t.Errorf("jsonl scan allocates %v per line, want <= 1", perLine)
	}
}
