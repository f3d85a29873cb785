package main

import (
	"strings"
	"testing"
)

// The experiment printers must run clean end to end at small scale
// (the heavy lifting is tested in internal/experiments; this guards
// the table-formatting layer).
func TestPrinters(t *testing.T) {
	if err := runE1(); err != nil {
		t.Fatal(err)
	}
	if err := runE2(); err != nil {
		t.Fatal(err)
	}
	if err := runE3(20, 30, 0.3, 1); err != nil {
		t.Fatal(err)
	}
	if err := runE4(15, 20, 1); err != nil {
		t.Fatal(err)
	}
	if err := runE6(15, 20, 1); err != nil {
		t.Fatal(err)
	}
	if err := runE7(1); err != nil {
		t.Fatal(err)
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
