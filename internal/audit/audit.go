// Package audit implements CerFix's data auditing module: it "keeps
// track of changes to each tuple, incurred either by the users or
// automatically by data monitor with editing rules and master data"
// and serves statistics such as "the percentage of FN values that were
// validated by the users and the percentage of values that were
// automatically fixed by CerFix" (paper §3, Fig. 4).
package audit

import (
	"fmt"
	"sort"
	"sync"

	"cerfix/internal/core"
	"cerfix/internal/value"
)

// Record is one audited event: a user validation or a rule-made fix of
// a single cell.
type Record struct {
	// Seq is the global sequence number (1-based, assignment order).
	Seq int
	// TupleID identifies the input tuple (monitor session ID).
	TupleID int64
	// Attr is the affected attribute.
	Attr string
	// Old and New are the values before/after; equal when the event
	// confirmed an already-correct value.
	Old, New value.V
	// Source is who acted (user or rule).
	Source core.Source
	// RuleID and MasterID carry rule provenance (SourceRule only):
	// which editing rule fired and which master tuple supplied the
	// value — the "where the correct values come from" of Fig. 4.
	RuleID   string
	MasterID int64
	// Round is the chase round for rule events, 0 for user events.
	Round int
}

// IsRewrite reports whether the event altered the stored value.
func (r Record) IsRewrite() bool { return r.Old != r.New }

// String renders one audit line.
func (r Record) String() string {
	who := "user validated"
	if r.Source == core.SourceRule {
		who = fmt.Sprintf("rule %s (master #%d) set", r.RuleID, r.MasterID)
	}
	if r.IsRewrite() {
		return fmt.Sprintf("#%d tuple %d: %s %s: %q -> %q", r.Seq, r.TupleID, who, r.Attr, string(r.Old), string(r.New))
	}
	return fmt.Sprintf("#%d tuple %d: %s %s: confirmed %q", r.Seq, r.TupleID, who, r.Attr, string(r.New))
}

// Log is a thread-safe audit log.
type Log struct {
	mu        sync.RWMutex
	records   []Record
	nextSeq   int
	lastTuple int64
}

// NewLog returns an empty log.
func NewLog() *Log { return &Log{nextSeq: 1} }

// NewTupleID allocates the ID under which a new tuple's records are
// kept: 1, 2, 3, ... never repeating within the log. Every monitor
// sharing the log draws from it, so sessions opened on successive
// monitors of one system never share an ID or a history.
func (l *Log) NewTupleID() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lastTuple++
	return l.lastTuple
}

// RecordUser logs a user validation of one attribute.
func (l *Log) RecordUser(tupleID int64, attr string, old, new value.V) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.records = append(l.records, Record{
		Seq:     l.nextSeq,
		TupleID: tupleID,
		Attr:    attr,
		Old:     old,
		New:     new,
		Source:  core.SourceUser,
	})
	l.nextSeq++
}

// RecordChanges logs the rule-made changes of one chase run.
func (l *Log) RecordChanges(tupleID int64, changes []core.Change) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range changes {
		l.records = append(l.records, Record{
			Seq:      l.nextSeq,
			TupleID:  tupleID,
			Attr:     c.Attr,
			Old:      c.Old,
			New:      c.New,
			Source:   c.Source,
			RuleID:   c.RuleID,
			MasterID: c.MasterID,
			Round:    c.Round,
		})
		l.nextSeq++
	}
}

// Len returns the number of records.
func (l *Log) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.records)
}

// All returns a copy of every record in sequence order.
func (l *Log) All() []Record {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return append([]Record(nil), l.records...)
}

// TupleHistory returns the records of one tuple in sequence order —
// the per-tuple inspection view of Fig. 4.
func (l *Log) TupleHistory(tupleID int64) []Record {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var out []Record
	for _, r := range l.records {
		if r.TupleID == tupleID {
			out = append(out, r)
		}
	}
	return out
}

// CellProvenance returns the latest record for (tupleID, attr): which
// action is responsible for the cell's final value.
func (l *Log) CellProvenance(tupleID int64, attr string) (Record, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	for i := len(l.records) - 1; i >= 0; i-- {
		r := l.records[i]
		if r.TupleID == tupleID && r.Attr == attr {
			return r, true
		}
	}
	return Record{}, false
}

// AttrStats aggregates one attribute's validation events.
type AttrStats struct {
	// Attr is the attribute name.
	Attr string
	// UserValidated counts user validation events.
	UserValidated int
	// AutoFixed counts rule events that rewrote the value.
	AutoFixed int
	// AutoConfirmed counts rule events that confirmed the value.
	AutoConfirmed int
}

// Total returns all events for the attribute.
func (s AttrStats) Total() int { return s.UserValidated + s.AutoFixed + s.AutoConfirmed }

// UserPct returns the user-validated percentage (0–100) — the Fig. 4
// per-attribute statistic.
func (s AttrStats) UserPct() float64 {
	t := s.Total()
	if t == 0 {
		return 0
	}
	return 100 * float64(s.UserValidated) / float64(t)
}

// AutoPct returns the CerFix-validated percentage (fixes plus
// confirmations).
func (s AttrStats) AutoPct() float64 {
	t := s.Total()
	if t == 0 {
		return 0
	}
	return 100 * float64(s.AutoFixed+s.AutoConfirmed) / float64(t)
}

// StatsPerAttr aggregates the log per attribute, sorted by name.
func (l *Log) StatsPerAttr() []AttrStats {
	l.mu.RLock()
	defer l.mu.RUnlock()
	byAttr := make(map[string]*AttrStats)
	for _, r := range l.records {
		s, ok := byAttr[r.Attr]
		if !ok {
			s = &AttrStats{Attr: r.Attr}
			byAttr[r.Attr] = s
		}
		switch {
		case r.Source == core.SourceUser:
			s.UserValidated++
		case r.IsRewrite():
			s.AutoFixed++
		default:
			s.AutoConfirmed++
		}
	}
	names := make([]string, 0, len(byAttr))
	for n := range byAttr {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]AttrStats, len(names))
	for i, n := range names {
		out[i] = *byAttr[n]
	}
	return out
}

// Overall sums events across attributes — the paper's headline
// statistic ("in average, 20% of values are validated by users while
// CerFix automatically fixes 80% of the data").
func (l *Log) Overall() AttrStats {
	total := AttrStats{Attr: "*"}
	for _, s := range l.StatsPerAttr() {
		total.UserValidated += s.UserValidated
		total.AutoFixed += s.AutoFixed
		total.AutoConfirmed += s.AutoConfirmed
	}
	return total
}
