package textutil

import (
	"fmt"
	"strings"
)

// TextTable accumulates rows and renders them as an aligned plain-text
// table. The benchmark harness uses it to print the same row/series
// layout the paper's figures report, so "paper shape vs measured shape"
// can be eyeballed from terminal output.
type TextTable struct {
	header []string
	rows   [][]string
}

// NewTextTable creates a table with the given column headers.
func NewTextTable(header ...string) *TextTable {
	return &TextTable{header: header}
}

// AddRow appends a row; cells beyond the header width are dropped and
// missing cells render empty.
func (t *TextTable) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// AddRowf formats each argument with %v and appends the row.
func (t *TextTable) AddRowf(cells ...any) {
	s := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			s[i] = fmt.Sprintf("%.3f", v)
		default:
			s[i] = fmt.Sprintf("%v", c)
		}
	}
	t.AddRow(s...)
}

// String renders the table with column alignment and a separator line.
func (t *TextTable) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(PadRight(c, widths[i]))
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteString("\n")
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
