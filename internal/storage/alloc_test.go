//go:build !race

package storage

import (
	"bytes"
	"fmt"
	"testing"
)

// TestReadCSVAllocs holds a bulk load to one copy per row: the
// record's cells (one string per record), the value list and the tuple,
// plus the table's amortized map and order growth. Storing a clone of
// every record, as Insert does, costs two more allocations per row.
// Guarded out under the race detector, whose instrumentation
// allocates.
func TestReadCSVAllocs(t *testing.T) {
	const rows = 1000
	sch := personSchema(t)
	var buf bytes.Buffer
	fmt.Fprintln(&buf, "FN,LN,zip")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&buf, "F%d,L%d,Z%d %dAA\n", i, i%97, i%31, i%7)
	}
	data := buf.Bytes()
	var tb *Table
	allocs := testing.AllocsPerRun(20, func() {
		tb = NewTable(sch)
		if err := tb.ReadCSV(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	})
	if tb.Len() != rows {
		t.Fatalf("loaded %d rows, want %d", tb.Len(), rows)
	}
	perRow := allocs / rows
	t.Logf("ReadCSV: %.2f allocs per row", perRow)
	if perRow > 4 {
		t.Fatalf("ReadCSV makes %.2f allocations per row, want at most 4", perRow)
	}
}
