package pipeline

import (
	"strings"
	"testing"

	"cerfix/internal/schema"
)

// FuzzCSVSource holds CSVSource to refCSV, the encoding/csv-only
// decoder its fast path replaced: for any input, under every readers
// chunking, the constructor error and every Next's values or error
// text must match, across the fast path's takeover into encoding/csv
// too. The seed corpus (testdata/fuzz/FuzzCSVSource) holds the curated
// differential cases in both line-ending conventions.
func FuzzCSVSource(f *testing.F) {
	sch, err := schema.New("T", schema.Str("a"), schema.Str("b"), schema.Str("c"))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, in string) {
		// drainCompare stops at 10,000 steps, and every step but the
		// last ends at a newline or at the end of the input.
		if strings.Count(in, "\n") > 9000 {
			return
		}
		for rname, mk := range readers(in) {
			got, want, ok := csvPair(t, rname, sch, in, mk)
			if !ok {
				continue
			}
			drainCompare(t, rname, got, want)
		}
	})
}
