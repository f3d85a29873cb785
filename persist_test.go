package cerfix

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cerfix/internal/dataset"
	"cerfix/internal/faultfs"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	sys := demoSystem(t)
	dir := filepath.Join(t.TempDir(), "instance")
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"manifest.json", "rules.txt", "master.csv"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("missing %s: %v", f, err)
		}
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.InputSchema().String() != sys.InputSchema().String() {
		t.Fatalf("input schema: %s vs %s", loaded.InputSchema(), sys.InputSchema())
	}
	if loaded.MasterSchema().String() != sys.MasterSchema().String() {
		t.Fatal("master schema mismatch")
	}
	if loaded.Rules() != sys.Rules() {
		t.Fatalf("rules mismatch:\n%s\nvs\n%s", loaded.Rules(), sys.Rules())
	}
	if loaded.Master().Len() != sys.Master().Len() {
		t.Fatalf("master rows: %d vs %d", loaded.Master().Len(), sys.Master().Len())
	}
	// The loaded system is fully functional: the Fig. 3 walkthrough
	// runs on it. (Note: the loaded input schema is a distinct
	// instance, so tuples must be built against it.)
	sess, err := loaded.NewSession(dataset.DemoInputFig3().Map())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Validate(map[string]string{
		"AC": "201", "phn": "075568485", "type": "2", "item": "DVD", "zip": "NW1 6XE",
	}); err != nil {
		t.Fatal(err)
	}
	if !sess.Certain() {
		t.Fatal("loaded system could not complete the walkthrough")
	}
	if sess.Tuple.Get("FN") != "Mark" {
		t.Fatalf("FN = %q", sess.Tuple.Get("FN"))
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("missing dir accepted")
	}
	// Corrupt manifest.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Fatal("broken manifest accepted")
	}
	// Valid manifest but missing rules.
	sys := demoSystem(t)
	dir2 := filepath.Join(t.TempDir(), "partial")
	if err := sys.Save(dir2); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir2, "rules.txt")); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir2); err == nil {
		t.Fatal("missing rules accepted")
	}
	// Missing master CSV.
	dir3 := filepath.Join(t.TempDir(), "partial2")
	if err := sys.Save(dir3); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir3, "master.csv")); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir3); err == nil {
		t.Fatal("missing master accepted")
	}
	// A log of the dictionary format (v2) has no reader: Load fails,
	// naming the file and both versions, and leaves the log as it was.
	dir4 := filepath.Join(t.TempDir(), "v2")
	if err := sys.Save(dir4); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir4, walFile)
	v2 := []byte(`{"op":"wal","v":2}` + "\n" +
		`{"op":"dict","defs":[{"id":12,"s":"Walter"}]}` + "\n" +
		`{"op":"ins","row":4,"cells":[12,12,12,12,12,12,12,12,12,12]}` + "\n" +
		`{"op":"commit","n":2,"crc":1}` + "\n")
	if err := os.WriteFile(walPath, v2, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Load(dir4)
	if err == nil || !strings.Contains(err.Error(), walPath) || !strings.Contains(err.Error(), "v2") || !strings.Contains(err.Error(), "v3") {
		t.Fatalf("v2 log: Load error %v, want one naming %s, v2 and v3", err, walPath)
	}
	if got, rerr := os.ReadFile(walPath); rerr != nil || !bytes.Equal(got, v2) {
		t.Fatalf("v2 log changed by the failed load: %q, %v", got, rerr)
	}
	if _, serr := os.Stat(walPath + ".corrupt"); !os.IsNotExist(serr) {
		t.Fatalf("v2 log was quarantined: %v", serr)
	}
}

func TestSaveLoadPreservesDomains(t *testing.T) {
	input, err := NewSchema("IN",
		Attribute{Name: "s"},
		Attribute{Name: "n", Domain: 1 /* DInt */},
	)
	if err != nil {
		t.Fatal(err)
	}
	masterSch, err := NewSchema("M", StringAttrs("s", "n")...)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(input, masterSch, "r1: match s~s set n := n")
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "typed")
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.InputSchema().Domain("n").String() != "int" {
		t.Fatalf("domain lost: %v", loaded.InputSchema().Domain("n"))
	}
}

// A save that fails mid-commit must leave the previously saved
// instance intact and loadable: Save stages the whole instance in a
// sibling directory and commits with two renames, restoring (or
// leaving a .bak that Load falls back to) when a rename fails.
func TestSaveFailureLeavesPreviousInstanceLoadable(t *testing.T) {
	sys := demoSystem(t)
	dir := filepath.Join(t.TempDir(), "instance")
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	before, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := before.Master().Len()
	if err := sys.AddMasterRow(make([]string, sys.MasterSchema().Len())...); err != nil {
		t.Fatal(err)
	}
	// A lone insert would take the WAL-append path and never reach the
	// commit renames; drop the cursor to force the checkpoint path this
	// test exists to crash-inject (a fresh process behaves the same).
	sys.walCursor = nil

	// Case 1: the staging→dir rename fails; Save restores the backup.
	inj := faultfs.NewInjector(faultfs.OS)
	inj.SetFault(func(op faultfs.Op, path string) error {
		if op == faultfs.OpRename && path == dir+".saving" {
			return fmt.Errorf("injected rename failure")
		}
		return nil
	})
	sys.fs = inj
	if err := sys.Save(dir); err == nil {
		t.Fatal("save succeeded despite injected commit failure")
	}
	after, err := Load(dir)
	if err != nil {
		t.Fatalf("previous instance not loadable after failed commit: %v", err)
	}
	if after.Master().Len() != wantRows || after.Rules() != before.Rules() {
		t.Fatalf("previous instance changed: %d rows, want %d", after.Master().Len(), wantRows)
	}

	// Case 2: the restore rename fails too (the crash-between-renames
	// window); Load must fall back to the .bak sibling.
	inj = faultfs.NewInjector(faultfs.OS)
	inj.SetFault(func(op faultfs.Op, path string) error {
		if op == faultfs.OpRename && (path == dir+".saving" || path == dir+".bak") {
			return fmt.Errorf("injected rename failure")
		}
		return nil
	})
	sys.fs = inj
	if err := sys.Save(dir); err == nil {
		t.Fatal("save succeeded despite injected commit failure")
	}
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); !os.IsNotExist(err) {
		t.Fatalf("expected dir to be mid-swap, stat err = %v", err)
	}
	after, err = Load(dir)
	if err != nil {
		t.Fatalf("backup fallback not loadable: %v", err)
	}
	if after.Master().Len() != wantRows || after.Rules() != before.Rules() {
		t.Fatalf("backup instance changed: %d rows, want %d", after.Master().Len(), wantRows)
	}
	if info := after.LoadInfo(); info == nil || !info.UsedBackup || info.Dir != dir+".bak" {
		t.Fatalf("backup fallback not reported in provenance: %+v", info)
	}

	// Heal: with renames working again the next save lands the new
	// state atomically and clears staging and backup.
	sys.fs = nil
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	final, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if final.Master().Len() != wantRows+1 {
		t.Fatalf("new save lost the added row: %d rows, want %d", final.Master().Len(), wantRows+1)
	}
	for _, leftover := range []string{dir + ".saving", dir + ".bak"} {
		if _, err := os.Stat(leftover); !os.IsNotExist(err) {
			t.Fatalf("leftover %q after successful save", leftover)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "manifest.json" && e.Name() != "rules.txt" && e.Name() != "master.csv" {
			t.Fatalf("unexpected leftover %q in instance dir", e.Name())
		}
	}
}
