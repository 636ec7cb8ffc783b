package experiments

import (
	"fmt"
	"strings"
)

// Table holds one experiment's numbers in the row/column layout the paper
// reports, and renders them two ways: aligned text (String) and JSON
// (WriteJSON).
type Table struct {
	Title  string
	Header []string
	Rows   []Row
	// Significance holds the paired t-tests behind the paper's "*" marks;
	// each renders as one line below the table, ahead of Notes.
	Significance []Significance
	// Notes are free-form lines appended below the table (protocol remarks).
	Notes []string
}

// Row is one table row: its name, which fills the first column, and one
// cell for each further column.
type Row struct {
	Name  string
	Cells []Cell
}

// Cell is one table entry: a number and the fmt verb it prints with, or,
// when Verb is empty, a word.
type Cell struct {
	V    float64
	Verb string
	Text string
}

// addRow appends a row.
func (t *Table) addRow(name string, cells ...Cell) { t.Rows = append(t.Rows, Row{name, cells}) }

// metric is a cell printed the way the paper's tables print a metric.
func metric(v float64) Cell { return Cell{V: v, Verb: "%.4f"} }

// Significance is one paired t-test of a RAPID variant against the best
// baseline on one metric column.
type Significance struct {
	Metric, Model, Baseline    string
	ModelMean, BaselineMean, P float64
	// Significant is set when P < 0.05 and the model's mean is higher.
	Significant bool
}

// render prints every cell, each row's name first, and the lines below the
// table: the significance tests, then the notes.
func (t *Table) render() (rows [][]string, notes []string) {
	for _, r := range t.Rows {
		row := []string{r.Name}
		for _, c := range r.Cells {
			if c.Verb == "" {
				row = append(row, c.Text)
			} else {
				row = append(row, fmt.Sprintf(c.Verb, c.V))
			}
		}
		rows = append(rows, row)
	}
	for _, s := range t.Significance {
		mark := ""
		if s.Significant {
			mark = " *significant (p<0.05)"
		}
		notes = append(notes, fmt.Sprintf("%s: %s %.4f vs best baseline %s %.4f (p=%.4f)%s",
			s.Metric, s.Model, s.ModelMean, s.Baseline, s.BaselineMean, s.P, mark))
	}
	return rows, append(notes, t.Notes...)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	rows, notes := t.render()
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range rows {
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
	for _, r := range rows {
		line(r)
	}
	for _, n := range notes {
		fmt.Fprintf(&b, "%s\n", n)
	}
	return b.String()
}
