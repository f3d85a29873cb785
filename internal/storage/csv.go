package storage

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"

	"cerfix/internal/schema"
	"cerfix/internal/value"
)

// WriteCSV serializes the table to w: a header row of attribute names
// followed by one record per row in insertion order. Row IDs are not
// persisted (they are storage-local).
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.sch.AttrNames()); err != nil {
		return fmt.Errorf("storage: writing csv header: %w", err)
	}
	var scanErr error
	t.Scan(func(tu *schema.Tuple) bool {
		if err := cw.Write(tu.Vals.Strings()); err != nil {
			scanErr = fmt.Errorf("storage: writing csv row: %w", err)
			return false
		}
		return true
	})
	if scanErr != nil {
		return scanErr
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV loads records from r into the table. The header must list
// exactly the schema's attributes (any order); columns are mapped by
// name so files survive schema attribute reordering. Each record is
// stored as the row built from it, with no second copy; the record
// slice is reused, and its cells, fresh strings per record, are copied
// out of it at once. Every row is built before any is stored, and all
// are appended in one step: on an error the table is unchanged.
func (t *Table) ReadCSV(r io.Reader) error {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return fmt.Errorf("storage: reading csv header: %w", err)
	}
	colToAttr := make([]int, len(header))
	seen := make(map[string]bool)
	for i, h := range header {
		idx, ok := t.sch.Index(h)
		if !ok {
			return fmt.Errorf("storage: csv column %q not in schema %s", h, t.sch.Name())
		}
		if seen[h] {
			return fmt.Errorf("storage: duplicate csv column %q", h)
		}
		seen[h] = true
		colToAttr[i] = idx
	}
	if len(seen) != t.sch.Len() {
		return fmt.Errorf("storage: csv header has %d columns, schema %s has %d attributes",
			len(seen), t.sch.Name(), t.sch.Len())
	}
	var rows []*schema.Tuple
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return t.appendOwned(rows)
		}
		if err != nil {
			return fmt.Errorf("storage: csv line %d: %w", line, err)
		}
		vals := make(value.List, t.sch.Len())
		for i, cell := range rec {
			vals[colToAttr[i]] = value.V(cell)
		}
		rows = append(rows, &schema.Tuple{Schema: t.sch, Vals: vals})
	}
}

// SaveCSVFile writes the table to path, creating or truncating it.
func (t *Table) SaveCSVFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	defer f.Close()
	if err := t.WriteCSV(f); err != nil {
		return err
	}
	return f.Sync()
}

// LoadCSVFile reads rows from path into the table.
func (t *Table) LoadCSVFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	defer f.Close()
	return t.ReadCSV(f)
}
