package main

import (
	"bytes"
	"io"
	"os"
	"slices"
	"strings"
	"testing"
)

// The experiment printers must run clean end to end at small scale
// (the heavy lifting is tested in internal/experiments; this guards
// the table-formatting layer).
func TestPrinters(t *testing.T) {
	w := io.Discard
	if err := runE1(w); err != nil {
		t.Fatal(err)
	}
	if err := runE2(w); err != nil {
		t.Fatal(err)
	}
	if err := runE3(w, 20, 30, 0.3, 1); err != nil {
		t.Fatal(err)
	}
	if err := runE4(w, 15, 20, 1); err != nil {
		t.Fatal(err)
	}
	if err := runE6(w, 15, 20, 1); err != nil {
		t.Fatal(err)
	}
	if err := runE7(w, 1); err != nil {
		t.Fatal(err)
	}
}

// timingCols names the wall-clock columns of each timed table, keyed
// by its header line with whitespace collapsed: E1's elapsed, the µs
// columns of both E5 tables, and E7's exact and greedy ms. Everything
// else the experiments print is a function of their seed.
var timingCols = map[string][]int{
	"rules consistent errors warnings CR probes elapsed": {5},
	"master tuples rule-index µs/fix scan µs/fix":        {1, 2},
	"rules µs/fix": {1},
	"attrs exact ms greedy ms exact best |Z| greedy best |Z| exact regions": {1, 2},
}

// TestExperimentsGolden pins E1–E7 to testdata/exp_all.golden, which
// is exactly the output of
//
//	go run ./cmd/cerfixbench -exp all -entities 60 -tuples 300 -seed 1
//
// Regenerate it by re-running that command into the file. Lines are
// compared field by field, split on whitespace, because a timing
// value's width moves its column's padding. The timing columns are
// masked, including their rule under the header, except that an E5
// "skipped" cell must still match.
func TestExperimentsGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/exp_all.golden")
	if err != nil {
		t.Fatal(err)
	}
	rs := runners(60, 300, 0.3, 1)
	want, err := parseExp("all", runnerNames(rs))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(&out, rs, want); err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(out.String(), "\n")
	wantLines := strings.Split(string(golden), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("output has %d lines, golden %d", len(gotLines), len(wantLines))
	}
	// masked holds the timing columns of the table being read, and
	// ncols its column count, taken from the rule under its header.
	var masked []int
	ncols := 0
	for i, wl := range wantLines {
		wf, gf := strings.Fields(wl), strings.Fields(gotLines[i])
		if len(wf) != len(gf) {
			t.Fatalf("line %d:\n got %q\nwant %q", i+1, gotLines[i], wl)
		}
		if cols, ok := timingCols[strings.Join(wf, " ")]; ok {
			masked, ncols = cols, -1 // the rule line follows
		} else if ncols == -1 {
			ncols = len(wf)
		} else if len(wf) != ncols {
			masked, ncols = nil, 0 // the table ended
		}
		for j := range wf {
			if wf[j] == gf[j] {
				continue
			}
			if ncols > 0 && slices.Contains(masked, j) && wf[j] != "skipped" && gf[j] != "skipped" {
				continue
			}
			t.Errorf("line %d field %d = %q, want %q\n got %q\nwant %q", i+1, j+1, gf[j], wf[j], gotLines[i], wl)
		}
	}
}

// -exp must select known experiments and reject anything else, so a
// stale name such as a retired e9 fails instead of silently running
// nothing.
func TestParseExp(t *testing.T) {
	valid := []string{"e1", "e2", "e3"}
	want, err := parseExp("all", valid)
	if err != nil || len(want) != 3 {
		t.Fatalf("all: %v, %v", want, err)
	}
	want, err = parseExp(" E1,e3", valid)
	if err != nil || !want["e1"] || want["e2"] || !want["e3"] {
		t.Fatalf("subset: %v, %v", want, err)
	}
	for _, spec := range []string{"e99", "e1,e9", ""} {
		_, err := parseExp(spec, valid)
		if err == nil || !strings.Contains(err.Error(), "e1, e2, e3, all") {
			t.Fatalf("parseExp(%q) err = %v, want unknown-experiment error listing the valid names", spec, err)
		}
	}
}
