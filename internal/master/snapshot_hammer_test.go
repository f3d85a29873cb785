package master

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"cerfix/internal/rule"
	"cerfix/internal/value"
)

// storeExpect pairs a published store snapshot with the writer-side
// truth at capture time.
type storeExpect struct {
	snap    *Store
	count   int
	lastZip string
	lastAC  string
	nextZip string
}

// TestSnapshotAtomicHammer interleaves a Store-level writer with O(1)
// snapshot captures and concurrent snapshot readers. The load-bearing
// assertion is atomicity: the tentpole contract says Snapshot is
// internally consistent with no caller-side lock, so a snapshot that
// contains a row in its table MUST also answer for it from the
// unique-RHS rule index (and one without the row answers NoMatch from
// both) — a torn capture of "row in table, not yet in index" (or the
// reverse) fails loudly. Run under -race this also proves the COW
// sharing across table and rule-index shards is data-race free.
func TestSnapshotAtomicHammer(t *testing.T) {
	m := New(personSchema(t))
	rs := rule.MustSet(mustParse(t, `r1: match zip~zip set AC := AC`))
	if err := m.PrepareForRules(rs); err != nil {
		t.Fatal(err)
	}

	const (
		iters   = 400
		readers = 4
	)
	snaps := make(chan storeExpect, iters)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for e := range snaps {
				if got := e.snap.Len(); got != e.count {
					t.Errorf("snapshot Len = %d, want %d", got, e.count)
					return
				}
				// Rule-index path: the newest row must be fully indexed.
				rhs, _, status := e.snap.UniqueRHS([]string{"zip"}, value.List{value.V(e.lastZip)}, []string{"AC"})
				if status != Unique || string(rhs[0]) != e.lastAC {
					t.Errorf("snapshot torn: newest row %q → %v/%v, want Unique/%q",
						e.lastZip, status, rhs, e.lastAC)
					return
				}
				// Table scan path agrees.
				if n := len(e.snap.Lookup([]string{"zip"}, value.List{value.V(e.lastZip)})); n != 1 {
					t.Errorf("snapshot table lookup for %q = %d rows, want 1", e.lastZip, n)
					return
				}
				// The row inserted after the capture is invisible to both.
				if _, _, status := e.snap.UniqueRHS([]string{"zip"}, value.List{value.V(e.nextZip)}, []string{"AC"}); status != NoMatch {
					t.Errorf("future row %q visible in rule index: %v", e.nextZip, status)
					return
				}
				if n := len(e.snap.Lookup([]string{"zip"}, value.List{value.V(e.nextZip)})); n != 0 {
					t.Errorf("future row %q visible in table: %d rows", e.nextZip, n)
					return
				}
			}
		}()
	}

	for i := 1; i <= iters; i++ {
		zip := fmt.Sprintf("Z%d %dAA", i, i%10)
		ac := fmt.Sprintf("%03d", i%997)
		if _, err := m.InsertValues("F", "L", value.V(ac), "1", "2", "3 Elm", "Edi", value.V(zip)); err != nil {
			t.Fatal(err)
		}
		snaps <- storeExpect{
			snap:    m.Snapshot(),
			count:   i,
			lastZip: zip,
			lastAC:  ac,
			nextZip: fmt.Sprintf("Z%d %dAA", i+1, (i+1)%10),
		}
	}
	close(snaps)
	wg.Wait()
}

// TestModeFlipsRaceFree: SetMode/Mode are safe against
// concurrent lookups and inserts (the mode is an atomic per-view
// knob). Under -race this is the regression test for the previously
// unsynchronized m.mode field.
func TestModeFlipsRaceFree(t *testing.T) {
	m := demoStore(t)
	rs := rule.MustSet(mustParse(t, `r1: match zip~zip set AC := AC`))
	if err := m.PrepareForRules(rs); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // mode flipper
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			m.SetMode(LookupMode(i % 2))
			if i%2 == 0 {
				m.SetMode(ModeRuleIndex)
			} else {
				m.SetMode(ModeScan)
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() { // lookup load
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				m.UniqueRHS([]string{"zip"}, value.List{"EH8 4AH"}, []string{"AC"})
				m.Lookup([]string{"zip"}, value.List{"NW1 6XE"})
				_ = m.Mode()
			}
		}()
	}
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			zip := fmt.Sprintf("W%d 1AA", i)
			if _, err := m.InsertValues("F", "L", "111", "1", "2", "3 Elm", "Edi", value.V(zip)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestStoreSnapshotCache: an unchanged store reuses its frozen
// internals (table + rule indexes) across snapshots while every call
// still returns its own view wrapper — SetMode on one snapshot never
// leaks into another. Inserts and rule-index rebuilds refresh the
// cached internals.
func TestStoreSnapshotCache(t *testing.T) {
	m := demoStore(t)
	rs := rule.MustSet(mustParse(t, `r1: match zip~zip set AC := AC`))
	if err := m.PrepareForRules(rs); err != nil {
		t.Fatal(err)
	}
	s1 := m.Snapshot()
	s2 := m.Snapshot()
	if s2.table != s1.table || s2.ruleIdx != s1.ruleIdx {
		t.Fatal("unchanged store did not reuse its frozen internals")
	}
	if s2 == s1 {
		t.Fatal("snapshots must be distinct views (per-view mode knob)")
	}
	// The mode knob is per view, even over shared internals.
	s1.SetMode(ModeScan)
	if s2.Mode() != ModeRuleIndex || m.Mode() != ModeRuleIndex {
		t.Fatalf("SetMode leaked across views: s2 %v live %v", s2.Mode(), m.Mode())
	}
	if _, err := m.InsertValues("Zed", "Hall", "111", "1", "2", "9 Oak", "Ldn", "ZZ1 1ZZ"); err != nil {
		t.Fatal(err)
	}
	s3 := m.Snapshot()
	if s3.table == s1.table || s3.Len() != 4 || s1.Len() != 3 {
		t.Fatalf("insert not reflected: shared table %v lens %d/%d", s3.table == s1.table, s1.Len(), s3.Len())
	}
	m.PrepareRuleIndexes(rs)
	if s4 := m.Snapshot(); s4.ruleIdx == s3.ruleIdx {
		t.Fatal("rule-index rebuild did not refresh the cached internals")
	}
}
