package experiments

import (
	"math"
	"testing"
)

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	if got := pearson(x, []float64{2, 4, 6, 8}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("perfect correlation = %v", got)
	}
	if got := pearson(x, []float64{8, 6, 4, 2}); math.Abs(got+1) > 1e-12 {
		t.Fatalf("perfect anti-correlation = %v", got)
	}
	if got := pearson(x, []float64{5, 5, 5, 5}); got != 0 {
		t.Fatalf("constant sample correlation = %v", got)
	}
	if got := pearson([]float64{1}, []float64{2}); got != 0 {
		t.Fatalf("degenerate length = %v", got)
	}
}

func TestRunPersonalizationSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	tbl, err := RunPersonalization(tinyOptions(51))
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("expected 3 rows, got %d", len(tbl.Rows))
	}
}

func TestRunExtendedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	tbl, err := RunExtended(tinyOptions(52))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range tbl.Rows {
		if r.Name == "Seq2Slate" {
			found = true
		}
	}
	if !found {
		t.Fatal("extended table missing Seq2Slate")
	}
}
