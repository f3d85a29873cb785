package main

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"cerfix/internal/dataset"
	"cerfix/internal/server"
)

func TestBuildSystemDemo(t *testing.T) {
	sys, err := buildSystem(true, "", "", "", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if sys.Master().Len() != 3 || sys.RuleSet().Len() != 9 {
		t.Fatalf("demo system = %d master, %d rules", sys.Master().Len(), sys.RuleSet().Len())
	}
	// And it actually serves.
	ts := httptest.NewServer(server.New(sys).Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/api/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestBuildSystemFromFiles(t *testing.T) {
	dir := t.TempDir()
	rules := filepath.Join(dir, "rules.txt")
	if err := os.WriteFile(rules, []byte(dataset.DemoRulesDSL), 0o644); err != nil {
		t.Fatal(err)
	}
	sys, err := buildSystem(false, "",
		"CUST:FN,LN,AC,phn,type,str,city,zip,item",
		"PERSON:FN,LN,AC,Hphn,Mphn,str,city,zip,DOB,gender",
		rules, "")
	if err != nil {
		t.Fatal(err)
	}
	if sys.RuleSet().Len() != 9 {
		t.Fatalf("rules = %d", sys.RuleSet().Len())
	}
}

func TestBuildSystemLoad(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "instance")
	seed, err := buildSystem(true, "", "", "", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Save(dir); err != nil {
		t.Fatal(err)
	}
	// One more row so the second save takes the WAL-append path — the
	// loaded daemon must replay it and report the provenance.
	if err := seed.AddMasterRow("Walter", "White", "505", "5550001", "5550002",
		"Negra Arroyo", "Albuquerque", "NM 87104", "07/09/58", "M"); err != nil {
		t.Fatal(err)
	}
	if err := seed.Save(dir); err != nil {
		t.Fatal(err)
	}
	sys, err := buildSystem(false, dir, "", "", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if sys.Master().Len() != 4 {
		t.Fatalf("loaded %d master tuples, want 4", sys.Master().Len())
	}
	info := sys.LoadInfo()
	if info == nil || info.WALRows != 1 || info.UsedBackup {
		t.Fatalf("load provenance = %+v", info)
	}
	if _, err := buildSystem(true, dir, "", "", "", ""); err == nil {
		t.Fatal("-load combined with -demo accepted")
	}
}

func TestBuildSystemErrors(t *testing.T) {
	if _, err := buildSystem(false, "", "", "", "", ""); err == nil {
		t.Fatal("missing flags accepted")
	}
	if _, err := buildSystem(false, "", "bad", "PERSON:a", "nope.txt", ""); err == nil {
		t.Fatal("bad input spec accepted")
	}
	if _, err := buildSystem(false, "", "CUST:a", "bad", "nope.txt", ""); err == nil {
		t.Fatal("bad master spec accepted")
	}
	if _, err := buildSystem(false, "", "CUST:a", "PERSON:a", filepath.Join(t.TempDir(), "nope.txt"), ""); err == nil {
		t.Fatal("missing rules file accepted")
	}
}

func TestParseSchemaSpecD(t *testing.T) {
	sch, err := parseSchemaSpec("R:a,b")
	if err != nil || sch.Len() != 2 {
		t.Fatalf("spec parse: %v %v", sch, err)
	}
	if _, err := parseSchemaSpec("nocolon"); err == nil {
		t.Fatal("bad spec accepted")
	}
}
