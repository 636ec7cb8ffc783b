package experiments

import (
	"slices"

	"repro/internal/dataset"
)

// appStoreLambda is the λ of the ground-truth user model used as the App
// Store environment. The paper evaluates App Store with real logged clicks
// and no click model; our "real user" is by construction the generating
// DCM, so evaluating against it directly is the faithful analogue
// (documented in DESIGN.md).
const appStoreLambda = 0.8

// table3Columns is the Table III metric layout (adds rev@k).
var table3Columns = []string{"click@5", "ndcg@5", "div@5", "rev@5", "click@10", "ndcg@10", "div@10", "rev@10"}

// RunTable3 reproduces Table III: the full roster on the App-Store-like
// dataset with revenue metrics and the improvement row versus PRM
// (the strongest baseline in the paper).
func RunTable3(opt Options) (*Table, error) {
	cfg := dataset.AppStoreLike(opt.Seed)
	rd, err := cachedRankedData(cfg, "DIN", opt)
	if err != nil {
		return nil, err
	}
	env := BuildEnv(rd, appStoreLambda, opt)
	tbl, err := utilityTable(env, opt, "Table III — App Store dataset (revenue objective)", table3Columns)
	if err != nil {
		return nil, err
	}
	addImprovementRow(tbl)
	return tbl, nil
}

// addImprovementRow appends the paper's "impv%" row to a table of the full
// roster: RAPID-pro versus PRM, column by column.
func addImprovementRow(tbl *Table) {
	prm := tbl.Rows[slices.Index(fullRoster, "PRM")].Cells
	rapid := tbl.Rows[slices.Index(fullRoster, "RAPID-pro")].Cells
	impv := make([]Cell, len(prm))
	for i, p := range prm {
		impv[i] = Cell{Text: "n/a"}
		if p.V != 0 {
			impv[i] = Cell{V: (rapid[i].V - p.V) / p.V * 100, Verb: "%+.2f%%"}
		}
	}
	tbl.addRow("impv% (vs PRM)", impv...)
}
