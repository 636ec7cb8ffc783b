package experiments

import (
	"fmt"
	"strings"
)

// Table is a formatted experiment result, printable in the same row/column
// layout the paper reports.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	// Notes are free-form lines appended below the table (significance
	// marks, protocol remarks).
	Notes []string
}

// addRow appends a row.
func (t *Table) addRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "%s\n", n)
	}
	return b.String()
}

// f4 formats a metric the way the paper's tables print them.
func f4(v float64) string { return fmt.Sprintf("%.4f", v) }
