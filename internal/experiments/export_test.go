package experiments

import (
	"encoding/json"
	"strings"
	"testing"
)

func sampleTable() *Table {
	tbl := &Table{
		Title:  "Sample",
		Header: []string{"model", "click@10"},
		Notes:  []string{"a note"},
	}
	tbl.addRow("Init", metric(1))
	tbl.addRow("RAPID-pro", metric(1.2))
	return tbl
}

func TestWriteJSON(t *testing.T) {
	var sb strings.Builder
	if err := sampleTable().WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var decoded tableJSON
	if err := json.Unmarshal([]byte(sb.String()), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Title != "Sample" || len(decoded.Rows) != 2 {
		t.Fatalf("decoded %+v", decoded)
	}
	if decoded.Rows[1]["model"] != "RAPID-pro" || decoded.Rows[1]["click@10"] != "1.2000" {
		t.Fatalf("row mapping %v", decoded.Rows[1])
	}
}
