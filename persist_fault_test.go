package cerfix

// Crash-point enumeration for the two durability-critical save paths.
// Each sweep records the full effect-op trace of one operation (every
// open/write/sync/rename/remove/dir-sync), then for every prefix k
// re-runs it with a simulated crash at op k, applies the unsynced-data
// loss a real power cut could inflict (keep 0, half, or all of the
// bytes written since the last fsync), reloads, and asserts the
// recovery invariants:
//
//   - the directory always loads to a complete instance (possibly via
//     the .bak fallback),
//   - acknowledged state (everything a returned-nil Save covered) is
//     never lost,
//   - a WAL batch is applied all-or-nothing — never a prefix.

import (
	"errors"
	"path/filepath"
	"syscall"
	"testing"

	"cerfix/internal/faultfs"
)

// lossVariants are the fractions of unsynced bytes a crash leaves
// behind: page cache flushed nothing, half (a torn write), everything
// ("the write landed but the fsync didn't").
var lossVariants = []float64{0, 0.5, 1}

func addRowT(t *testing.T, sys *System, fn, ln string) {
	t.Helper()
	if err := sys.AddMasterRow(fn, ln, "505", "1", "2", "3", "4", "NM 87104", "07/09/58", "M"); err != nil {
		t.Fatal(err)
	}
}

// TestCrashSweepWALAppend enumerates every crash point of a WAL-append
// save. Invariant: the reloaded instance holds either exactly the
// acknowledged rows (the batch is discarded whole) or all of them plus
// the full batch — never a partially applied batch. After the crash,
// the survivor process (same cursor) must be able to save again and
// land every row.
func TestCrashSweepWALAppend(t *testing.T) {
	// Count the effect ops of one representative append (two rows, one
	// batch) on a throwaway directory.
	count := faultfs.NewInjector(faultfs.OS)
	{
		sys := demoSystem(t)
		dir := filepath.Join(t.TempDir(), "instance")
		if err := sys.Save(dir); err != nil {
			t.Fatal(err)
		}
		sys.fs = count
		addRowT(t, sys, "Walter", "White")
		addRowT(t, sys, "Jesse", "Pinkman")
		if err := sys.Save(dir); err != nil {
			t.Fatal(err)
		}
	}
	n := count.EffectOps()
	if n < 3 {
		t.Fatalf("suspiciously short append trace (%d ops): %v", n, count.Trace())
	}

	for k := 0; k < n; k++ {
		for _, keep := range lossVariants {
			sys := demoSystem(t)
			dir := filepath.Join(t.TempDir(), "instance")
			if err := sys.Save(dir); err != nil {
				t.Fatal(err)
			}
			acked := sys.Master().Len()
			inj := faultfs.NewInjector(faultfs.OS)
			sys.fs = inj
			inj.SetCrashAt(k)
			addRowT(t, sys, "Walter", "White")
			addRowT(t, sys, "Jesse", "Pinkman")
			err := sys.Save(dir)
			if err == nil {
				t.Fatalf("crash at op %d/%d did not fail the save", k, n)
			}
			if !errors.Is(err, faultfs.ErrCrashed) {
				t.Fatalf("crash at op %d: unexpected error %v", k, err)
			}
			if err := inj.LoseUnsynced(keep); err != nil {
				t.Fatalf("crash at op %d keep=%v: loss simulation: %v", k, keep, err)
			}
			loaded, err := Load(dir)
			if err != nil {
				t.Fatalf("crash at op %d keep=%v: reload failed: %v", k, keep, err)
			}
			if got := loaded.Master().Len(); got != acked && got != acked+2 {
				t.Fatalf("crash at op %d keep=%v: %d rows after reload, want %d (batch discarded) or %d (batch applied) — a half-applied batch",
					k, keep, got, acked, acked+2)
			}
			if info := loaded.LoadInfo(); info.WALCorrupt {
				t.Fatalf("crash at op %d keep=%v: crash residue misread as corruption: %+v", k, keep, info)
			}
			if loaded.Rules() != sys.Rules() {
				t.Fatalf("crash at op %d keep=%v: rules damaged", k, keep)
			}

			// The surviving process retries: the cursor is intact, so
			// the next save must truncate any torn tail and land both
			// rows (possibly via a checkpoint if the window closed).
			sys.fs = nil
			if err := sys.Save(dir); err != nil {
				t.Fatalf("crash at op %d keep=%v: retry save failed: %v", k, keep, err)
			}
			final, err := Load(dir)
			if err != nil {
				t.Fatalf("crash at op %d keep=%v: post-retry reload failed: %v", k, keep, err)
			}
			if final.Master().Len() != acked+2 {
				t.Fatalf("crash at op %d keep=%v: retry landed %d rows, want %d",
					k, keep, final.Master().Len(), acked+2)
			}
		}
	}
}

// TestCrashSweepCheckpoint enumerates every crash point of a full
// checkpoint swap (a rule edit + an insert since the last save, so
// the window is not pure-append). Invariant: the directory — or its
// .bak fallback — always reloads to a complete instance that is
// exactly the old acknowledged state or exactly the new one: the
// acknowledged rows under the old rules, or one more row under the
// new rules.
func TestCrashSweepCheckpoint(t *testing.T) {
	mutate := func(t *testing.T, sys *System) {
		if err := sys.AddRule(`edit: match zip~zip set city := city`); err != nil {
			t.Fatal(err)
		}
		addRowT(t, sys, "Walter", "White")
	}

	count := faultfs.NewInjector(faultfs.OS)
	{
		sys := demoSystem(t)
		dir := filepath.Join(t.TempDir(), "instance")
		if err := sys.Save(dir); err != nil {
			t.Fatal(err)
		}
		mutate(t, sys)
		sys.fs = count
		if err := sys.Save(dir); err != nil {
			t.Fatal(err)
		}
	}
	n := count.EffectOps()
	if n < 8 {
		t.Fatalf("suspiciously short checkpoint trace (%d ops): %v", n, count.Trace())
	}

	for k := 0; k < n; k++ {
		for _, keep := range lossVariants {
			sys := demoSystem(t)
			dir := filepath.Join(t.TempDir(), "instance")
			if err := sys.Save(dir); err != nil {
				t.Fatal(err)
			}
			acked, oldRules := sys.Master().Len(), sys.Rules()
			mutate(t, sys)
			inj := faultfs.NewInjector(faultfs.OS)
			sys.fs = inj
			inj.SetCrashAt(k)
			err := sys.Save(dir)
			if err == nil {
				t.Fatalf("crash at op %d/%d did not fail the save", k, n)
			}
			if err := inj.LoseUnsynced(keep); err != nil {
				t.Fatalf("crash at op %d keep=%v: loss simulation: %v", k, keep, err)
			}
			loaded, err := Load(dir)
			if err != nil {
				t.Fatalf("crash at op %d keep=%v: reload failed: %v", k, keep, err)
			}
			got, rules := loaded.Master().Len(), loaded.Rules()
			switch {
			case got == acked && rules == oldRules: // old instance, intact
			case got == acked+1 && rules == sys.Rules(): // new instance, intact
			default:
				t.Fatalf("crash at op %d keep=%v: mixed instance after reload (%d rows, rules %q)",
					k, keep, got, rules)
			}

			// Recovery: a healthy save from the survivor lands the new
			// state (the cursor died with the failed checkpoint, so
			// this is a fresh checkpoint).
			sys.fs = nil
			if err := sys.Save(dir); err != nil {
				t.Fatalf("crash at op %d keep=%v: retry save failed: %v", k, keep, err)
			}
			final, err := Load(dir)
			if err != nil {
				t.Fatalf("crash at op %d keep=%v: post-retry reload failed: %v", k, keep, err)
			}
			if final.Master().Len() != acked+1 || final.Rules() != sys.Rules() {
				t.Fatalf("crash at op %d keep=%v: retry landed %d rows and rules %q, want %d and %q",
					k, keep, final.Master().Len(), final.Rules(), acked+1, sys.Rules())
			}
		}
	}
}

// TestWALAppendTruncatesTornTail pins the torn-tail repair: a failed
// append leaves garbage past the durable prefix; the next append must
// truncate it first so new batches never land after a torn tail.
func TestWALAppendTruncatesTornTail(t *testing.T) {
	sys := demoSystem(t)
	dir := filepath.Join(t.TempDir(), "instance")
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	acked := sys.Master().Len()

	// First append attempt: the batch write lands, the fsync fails.
	inj := faultfs.NewInjector(faultfs.OS)
	inj.FailNth(faultfs.OpSync, walFile, 1, syscall.ENOSPC)
	sys.fs = inj
	addRowT(t, sys, "Walter", "White")
	if err := sys.Save(dir); err == nil {
		t.Fatal("save succeeded despite injected fsync failure")
	} else if !faultfs.Transient(err) {
		t.Fatalf("ENOSPC not classified transient: %v", err)
	}

	// The failed attempt's bytes are on disk past the durable prefix.
	fi, err := faultfs.OS.Stat(filepath.Join(dir, walFile))
	if err != nil || fi.Size() == 0 {
		t.Fatalf("expected torn bytes on disk: size=%v err=%v", fi, err)
	}

	// Healthy retry: both rows land in one clean batch; replay sees no
	// tear and no corruption.
	sys.fs = nil
	addRowT(t, sys, "Jesse", "Pinkman")
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Master().Len() != acked+2 {
		t.Fatalf("got %d rows, want %d", loaded.Master().Len(), acked+2)
	}
	info := loaded.LoadInfo()
	if info.WALTornTail || info.WALCorrupt || info.WALBatches != 1 || info.WALRows != 2 {
		t.Fatalf("torn tail not repaired before append: %+v", info)
	}
}

// TestSaveReportsPersistenceHealth pins the Save→Health wiring: a
// transient storage fault degrades, a later success restores.
func TestSaveReportsPersistenceHealth(t *testing.T) {
	sys := demoSystem(t)
	dir := filepath.Join(t.TempDir(), "instance")
	h := faultfs.NewHealth(nil, 0)
	sys.SetPersistenceHealth(h)
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	if st := h.Status(); st.State != "ok" {
		t.Fatalf("healthy save left state %q", st.State)
	}

	inj := faultfs.NewInjector(faultfs.OS)
	inj.FailNth(faultfs.OpWrite, walFile, 1, syscall.ENOSPC)
	sys.fs = inj
	addRowT(t, sys, "Walter", "White")
	if err := sys.Save(dir); err == nil {
		t.Fatal("save succeeded despite injected ENOSPC")
	}
	if st := h.Status(); st.State != "degraded" || st.Degradations != 1 {
		t.Fatalf("ENOSPC did not degrade health: %+v", st)
	}
	if err := h.Check(); !errors.Is(err, faultfs.ErrDegraded) {
		t.Fatalf("Check while degraded = %v, want ErrDegraded", err)
	}

	sys.fs = nil
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	if st := h.Status(); st.State != "ok" {
		t.Fatalf("successful save did not restore health: %+v", st)
	}
	if err := h.Check(); err != nil {
		t.Fatalf("Check after recovery = %v", err)
	}
}
