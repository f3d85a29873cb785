package audit

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"cerfix/internal/core"
	"cerfix/internal/value"
)

// valueOf converts a CSV cell back into a value.
func valueOf(s string) value.V { return value.V(s) }

// This file implements audit-log export: "statistics about the changes
// can be retrieved upon users' requests" (paper §2) — including as a
// flat file for downstream quality dashboards.

// csvHeader is the exported column set.
var csvHeader = []string{"seq", "tuple_id", "attr", "old", "new", "source", "rule_id", "master_id", "round"}

// WriteCSV exports every record in sequence order.
func (l *Log) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("audit: writing header: %w", err)
	}
	for _, r := range l.All() {
		rec := []string{
			strconv.Itoa(r.Seq),
			strconv.FormatInt(r.TupleID, 10),
			r.Attr,
			string(r.Old),
			string(r.New),
			r.Source.String(),
			r.RuleID,
			strconv.FormatInt(r.MasterID, 10),
			strconv.Itoa(r.Round),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("audit: writing record %d: %w", r.Seq, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV imports records previously written by WriteCSV, appending
// them with fresh sequence numbers (the log is append-only; original
// sequence order is preserved by file order). Imported records keep
// their tuple IDs, so NewTupleID continues past the largest one.
func (l *Log) ReadCSV(r io.Reader) error {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return fmt.Errorf("audit: reading header: %w", err)
	}
	if len(header) != len(csvHeader) {
		return fmt.Errorf("audit: header has %d columns, want %d", len(header), len(csvHeader))
	}
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("audit: line %d: %w", line, err)
		}
		tupleID, err := strconv.ParseInt(rec[1], 10, 64)
		if err != nil {
			return fmt.Errorf("audit: line %d: bad tuple id %q", line, rec[1])
		}
		masterID, err := strconv.ParseInt(rec[7], 10, 64)
		if err != nil {
			return fmt.Errorf("audit: line %d: bad master id %q", line, rec[7])
		}
		round, err := strconv.Atoi(rec[8])
		if err != nil {
			return fmt.Errorf("audit: line %d: bad round %q", line, rec[8])
		}
		src := core.SourceUser
		if rec[5] == core.SourceRule.String() {
			src = core.SourceRule
		}
		l.mu.Lock()
		l.records = append(l.records, Record{
			Seq:      l.nextSeq,
			TupleID:  tupleID,
			Attr:     rec[2],
			Old:      valueOf(rec[3]),
			New:      valueOf(rec[4]),
			Source:   src,
			RuleID:   rec[6],
			MasterID: masterID,
			Round:    round,
		})
		l.nextSeq++
		l.lastTuple = max(l.lastTuple, tupleID)
		l.mu.Unlock()
	}
}
