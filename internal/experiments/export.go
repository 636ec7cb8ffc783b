package experiments

import (
	"encoding/json"
	"io"
)

// tableJSON is the stable wire form of a Table.
type tableJSON struct {
	Title  string              `json:"title"`
	Header []string            `json:"header"`
	Rows   []map[string]string `json:"rows"`
	Notes  []string            `json:"notes,omitempty"`
}

// WriteJSON emits the table as JSON with one object per row keyed by the
// header, the format downstream plotting scripts consume.
func (t *Table) WriteJSON(w io.Writer) error {
	rows, notes := t.render()
	out := tableJSON{Title: t.Title, Header: t.Header, Notes: notes}
	for _, r := range rows {
		row := make(map[string]string, len(t.Header))
		for i, h := range t.Header {
			if i < len(r) {
				row[h] = r[i]
			}
		}
		out.Rows = append(out.Rows, row)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
