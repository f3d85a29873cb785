package audit

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"cerfix/internal/core"
)

func TestRecordUserAndChanges(t *testing.T) {
	l := NewLog()
	l.RecordUser(1, "zip", "EH8", "EH8 4AH")
	l.RecordChanges(1, []core.Change{
		{Attr: "AC", Old: "020", New: "131", Source: core.SourceRule, RuleID: "phi1", MasterID: 7, Round: 1},
		{Attr: "city", Old: "Edi", New: "Edi", Source: core.SourceRule, RuleID: "phi3", MasterID: 7, Round: 1},
	})
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
	all := l.All()
	if all[0].Seq != 1 || all[2].Seq != 3 {
		t.Fatalf("sequence numbers wrong: %+v", all)
	}
	if all[1].RuleID != "phi1" || all[1].MasterID != 7 {
		t.Fatalf("provenance lost: %+v", all[1])
	}
	if !all[1].IsRewrite() || all[2].IsRewrite() {
		t.Fatal("IsRewrite wrong")
	}
}

func TestHistories(t *testing.T) {
	l := NewLog()
	l.RecordUser(1, "zip", "a", "b")
	l.RecordUser(2, "zip", "c", "d")
	l.RecordUser(1, "AC", "x", "y")
	th := l.TupleHistory(1)
	if len(th) != 2 || th[0].Attr != "zip" || th[1].Attr != "AC" {
		t.Fatalf("TupleHistory = %+v", th)
	}
	if h := l.TupleHistory(99); len(h) != 0 {
		t.Fatalf("phantom history: %+v", h)
	}
}

// The Fig. 4 click-through: selecting the FN cell of a tuple shows the
// latest action, the rule and the master tuple used.
func TestCellProvenance(t *testing.T) {
	l := NewLog()
	l.RecordUser(1, "FN", "M.", "M.")
	l.RecordChanges(1, []core.Change{
		{Attr: "FN", Old: "M.", New: "Mark", Source: core.SourceRule, RuleID: "phi4", MasterID: 2, Round: 1},
	})
	rec, ok := l.CellProvenance(1, "FN")
	if !ok {
		t.Fatal("provenance missing")
	}
	if rec.RuleID != "phi4" || rec.New != "Mark" {
		t.Fatalf("latest record wrong: %+v", rec)
	}
	if !strings.Contains(rec.String(), "phi4") {
		t.Errorf("String = %q", rec.String())
	}
	if _, ok := l.CellProvenance(1, "zip"); ok {
		t.Fatal("phantom provenance")
	}
}

func TestStatsPerAttr(t *testing.T) {
	l := NewLog()
	// FN: 1 user validation, 3 auto fixes, 1 auto confirmation.
	l.RecordUser(1, "FN", "a", "a")
	l.RecordChanges(2, []core.Change{{Attr: "FN", Old: "M.", New: "Mark", Source: core.SourceRule}})
	l.RecordChanges(3, []core.Change{{Attr: "FN", Old: "R.", New: "Robert", Source: core.SourceRule}})
	l.RecordChanges(4, []core.Change{{Attr: "FN", Old: "B.", New: "Bob", Source: core.SourceRule}})
	l.RecordChanges(5, []core.Change{{Attr: "FN", Old: "Ann", New: "Ann", Source: core.SourceRule}})
	stats := l.StatsPerAttr()
	if len(stats) != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	fn := stats[0]
	if fn.Attr != "FN" || fn.UserValidated != 1 || fn.AutoFixed != 3 || fn.AutoConfirmed != 1 {
		t.Fatalf("FN stats = %+v", fn)
	}
	if fn.Total() != 5 {
		t.Fatalf("Total = %d", fn.Total())
	}
	if fn.UserPct() != 20 || fn.AutoPct() != 80 {
		t.Fatalf("UserPct/AutoPct = %v/%v, want the paper's 20/80", fn.UserPct(), fn.AutoPct())
	}
}

func TestStatsSortedByAttr(t *testing.T) {
	l := NewLog()
	l.RecordUser(1, "zip", "", "z")
	l.RecordUser(1, "AC", "", "a")
	l.RecordUser(1, "city", "", "c")
	stats := l.StatsPerAttr()
	if stats[0].Attr != "AC" || stats[1].Attr != "city" || stats[2].Attr != "zip" {
		t.Fatalf("not sorted: %+v", stats)
	}
}

func TestOverall(t *testing.T) {
	l := NewLog()
	l.RecordUser(1, "zip", "", "z")
	l.RecordChanges(1, []core.Change{
		{Attr: "AC", Old: "020", New: "131", Source: core.SourceRule},
		{Attr: "str", Old: "s", New: "s", Source: core.SourceRule},
		{Attr: "city", Old: "x", New: "y", Source: core.SourceRule},
	})
	o := l.Overall()
	if o.UserValidated != 1 || o.AutoFixed != 2 || o.AutoConfirmed != 1 {
		t.Fatalf("Overall = %+v", o)
	}
	if o.UserPct() != 25 || o.AutoPct() != 75 {
		t.Fatalf("percentages = %v/%v", o.UserPct(), o.AutoPct())
	}
}

func TestEmptyStats(t *testing.T) {
	l := NewLog()
	if len(l.StatsPerAttr()) != 0 {
		t.Fatal("stats on empty log")
	}
	o := l.Overall()
	if o.UserPct() != 0 || o.AutoPct() != 0 || o.Total() != 0 {
		t.Fatalf("empty overall = %+v", o)
	}
}

func TestConcurrentLogging(t *testing.T) {
	l := NewLog()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.RecordUser(int64(g), "zip", "a", "b")
				l.StatsPerAttr()
			}
		}(g)
	}
	wg.Wait()
	if l.Len() != 800 {
		t.Fatalf("Len = %d", l.Len())
	}
	// Sequence numbers are unique.
	seen := make(map[int]bool)
	for _, r := range l.All() {
		if seen[r.Seq] {
			t.Fatalf("duplicate seq %d", r.Seq)
		}
		seen[r.Seq] = true
	}
}

func TestUserRecordString(t *testing.T) {
	l := NewLog()
	l.RecordUser(1, "zip", "a", "b")
	s := l.All()[0].String()
	if !strings.Contains(s, "user validated") || !strings.Contains(s, "zip") {
		t.Errorf("String = %q", s)
	}
}

func TestCSVExportRoundTrip(t *testing.T) {
	l := NewLog()
	l.RecordUser(1, "zip", "EH8", "EH8 4AH")
	l.RecordChanges(1, []core.Change{
		{Attr: "AC", Old: "020", New: "131", Source: core.SourceRule, RuleID: "phi1", MasterID: 7, Round: 1},
	})
	var buf bytes.Buffer
	if err := l.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	l2 := NewLog()
	if err := l2.ReadCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if l2.Len() != 2 {
		t.Fatalf("Len = %d", l2.Len())
	}
	a, b := l.All(), l2.All()
	for i := range a {
		if a[i].Attr != b[i].Attr || a[i].New != b[i].New ||
			a[i].Source != b[i].Source || a[i].RuleID != b[i].RuleID ||
			a[i].MasterID != b[i].MasterID || a[i].Round != b[i].Round {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Stats agree after round trip.
	if l2.Overall() != l.Overall() {
		t.Fatal("stats diverged after round trip")
	}
}

// An import keeps the records' tuple IDs, so the next allocated ID
// must come after them or a new tuple would inherit an imported
// history.
func TestCSVImportAdvancesTupleIDs(t *testing.T) {
	l := NewLog()
	if id := l.NewTupleID(); id != 1 {
		t.Fatalf("first NewTupleID = %d, want 1", id)
	}
	src := "seq,tuple_id,attr,old,new,source,rule_id,master_id,round\n" +
		"1,5,zip,EH8,EH8 4AH,user,,0,0\n1,3,AC,020,131,rule,phi1,7,1\n"
	if err := l.ReadCSV(strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
	if id := l.NewTupleID(); id != 6 {
		t.Fatalf("NewTupleID after importing tuples 5 and 3 = %d, want 6", id)
	}
}

func TestCSVImportErrors(t *testing.T) {
	l := NewLog()
	cases := []string{
		"",
		"wrong,header\n",
		"seq,tuple_id,attr,old,new,source,rule_id,master_id,round\nx,bad,a,o,n,user,,0,0\n",
		"seq,tuple_id,attr,old,new,source,rule_id,master_id,round\n1,1,a,o,n,user,,bad,0\n",
		"seq,tuple_id,attr,old,new,source,rule_id,master_id,round\n1,1,a,o,n,user,,0,bad\n",
	}
	for i, src := range cases {
		if err := l.ReadCSV(strings.NewReader(src)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}
