package experiments

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/rerank"
)

func tinyOptions(seed int64) Options {
	opt := DefaultOptions()
	opt.Scale = 0.02 // 30 train / 12 test requests — smoke-test size
	opt.Seed = seed
	opt.Epochs = 2
	return opt
}

func TestBuildEnvStructure(t *testing.T) {
	opt := tinyOptions(42)
	rd, err := cachedRankedData(dataset.TaobaoLike(42), "DIN", opt)
	if err != nil {
		t.Fatal(err)
	}
	env := BuildEnv(rd, 0.9, opt)
	if len(env.Train) == 0 || len(env.Test) == 0 {
		t.Fatal("empty env splits")
	}
	for _, inst := range env.Train {
		if inst.Labels == nil {
			t.Fatal("training instance without click labels")
		}
		if inst.L() != rd.Data.Cfg.ListLen {
			t.Fatalf("list length %d, want %d", inst.L(), rd.Data.Cfg.ListLen)
		}
	}
	for _, inst := range env.Test {
		if inst.Labels != nil {
			t.Fatal("test instance carries labels")
		}
	}
}

func TestBuildEnvDeterministic(t *testing.T) {
	opt := tinyOptions(43)
	rd, err := BuildRankedData(dataset.TaobaoLike(43), NewRankerByName("DIN", 43), opt)
	if err != nil {
		t.Fatal(err)
	}
	a := BuildEnv(rd, 0.9, opt)
	b := BuildEnv(rd, 0.9, opt)
	for i := range a.Train {
		for k := range a.Train[i].Labels {
			if a.Train[i].Labels[k] != b.Train[i].Labels[k] {
				t.Fatal("click simulation not deterministic for fixed options")
			}
		}
	}
}

func TestEvaluateMetricKeys(t *testing.T) {
	opt := tinyOptions(44)
	rd, err := cachedRankedData(dataset.AppStoreLike(44), "DIN", opt)
	if err != nil {
		t.Fatal(err)
	}
	env := BuildEnv(rd, appStoreLambda, opt)
	res := env.Evaluate(rerank.Identity{}, []int{5, 10})
	for _, key := range []string{"click@5", "ndcg@10", "div@5", "satis@10", "rev@5", "rev@10"} {
		if len(res.PerRequest[key]) != len(env.Test) {
			t.Fatalf("metric %s has %d samples, want %d", key, len(res.PerRequest[key]), len(env.Test))
		}
	}
	// Bid-less datasets must not emit rev.
	rd2, err := cachedRankedData(dataset.TaobaoLike(44), "DIN", opt)
	if err != nil {
		t.Fatal(err)
	}
	env2 := BuildEnv(rd2, 0.9, opt)
	res2 := env2.Evaluate(rerank.Identity{}, []int{5})
	if _, ok := res2.PerRequest["rev@5"]; ok {
		t.Fatal("taobao evaluation emitted rev@k")
	}
}

func TestOracleDominatesInit(t *testing.T) {
	opt := tinyOptions(45)
	rd, err := cachedRankedData(dataset.TaobaoLike(45), "DIN", opt)
	if err != nil {
		t.Fatal(err)
	}
	env := BuildEnv(rd, 0.5, opt)
	init := env.Evaluate(rerank.Identity{}, []int{10})
	orc := env.Evaluate(oracle{env}, []int{10})
	if orc.Mean("click@10") < init.Mean("click@10") {
		t.Fatalf("oracle clicks %v below init %v", orc.Mean("click@10"), init.Mean("click@10"))
	}
}

func TestRapidBeatsInitIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("integration training is slow")
	}
	// End-to-end: at a moderate scale RAPID must beat the initial ranking
	// on expected clicks — the paper's headline qualitative claim.
	opt := DefaultOptions()
	opt.Scale = 0.15
	opt.Seed = 46
	rd, err := cachedRankedData(dataset.TaobaoLike(46), "DIN", opt)
	if err != nil {
		t.Fatal(err)
	}
	env := BuildEnv(rd, 0.5, opt)
	m := NewRAPID(env, opt, 12, nil)
	if err := env.FitIfTrainable(m, opt); err != nil {
		t.Fatal(err)
	}
	init := env.Evaluate(rerank.Identity{}, []int{10})
	got := env.Evaluate(m, []int{10})
	if got.Mean("click@10") <= init.Mean("click@10") {
		t.Fatalf("RAPID click@10 %v did not beat init %v", got.Mean("click@10"), init.Mean("click@10"))
	}
	if got.Mean("satis@10") <= init.Mean("satis@10") {
		t.Fatalf("RAPID satis@10 %v did not beat init %v", got.Mean("satis@10"), init.Mean("satis@10"))
	}
}

func TestTableFormatting(t *testing.T) {
	tbl := &Table{
		Title:  "t",
		Header: []string{"model", "click@5"},
		Notes:  []string{"note line"},
	}
	tbl.addRow("Init", metric(0.12344))
	tbl.addRow("RAPID-pro", metric(0.56776))
	s := tbl.String()
	for _, want := range []string{"t\n", "model", "click@5", "Init  ", "0.1234", "RAPID-pro", "0.5678", "note line"} {
		if !strings.Contains(s, want) {
			t.Fatalf("formatted table missing %q:\n%s", want, s)
		}
	}
}

func TestRunRegretTable(t *testing.T) {
	opt := RegretOptions{Rounds: 300, Checkpoint: 100, Seed: 1, SScale: 0.1}
	tbl, curves := RunRegret(opt)
	if len(curves) != 4 {
		t.Fatalf("expected 4 curves (UCB, greedy, non-personalized, Thompson), got %d", len(curves))
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("empty regret table")
	}
	for _, c := range curves {
		if c.Final < 0 {
			t.Fatalf("%s negative cumulative regret", c.Mode)
		}
	}
}

func TestSignificanceNotes(t *testing.T) {
	mk := func(name string, clicks []float64) *EvalResult {
		return &EvalResult{Name: name, PerRequest: map[string][]float64{"click@10": clicks}}
	}
	results := []*EvalResult{
		mk("Init", []float64{1, 1, 1, 1}),
		mk("PRM", []float64{1.0, 1.1, 1.0, 1.1}),
		mk("RAPID-pro", []float64{1.4, 1.5, 1.4, 1.5}),
	}
	tests := significance(results, []string{"click@10"})
	if len(tests) != 1 {
		t.Fatalf("expected 1 test, got %d", len(tests))
	}
	if got := tests[0]; got.Metric != "click@10" || got.Model != "RAPID-pro" || got.Baseline != "PRM" ||
		!near(got.ModelMean, 1.45) || !near(got.BaselineMean, 1.05) || got.P >= 0.05 || !got.Significant {
		t.Fatalf("clear separation of RAPID-pro over PRM should be significant: %+v", got)
	}

	// Each column is tested against its own best baseline, once per RAPID
	// variant: SRGA leads click@10 but DESA leads ndcg@5.
	mk2 := func(name string, clicks, ndcg []float64) *EvalResult {
		return &EvalResult{Name: name, PerRequest: map[string][]float64{"click@10": clicks, "ndcg@5": ndcg}}
	}
	results = []*EvalResult{
		mk2("Init", []float64{1, 1, 1, 1}, []float64{0.1, 0.1, 0.1, 0.1}),
		mk2("SRGA", []float64{1.3, 1.4, 1.3, 1.4}, []float64{0.2, 0.3, 0.2, 0.3}),
		mk2("DESA", []float64{1.1, 1.2, 1.1, 1.2}, []float64{0.5, 0.6, 0.5, 0.6}),
		mk2("RAPID-det", []float64{1.5, 1.6, 1.5, 1.6}, []float64{0.4, 0.5, 0.4, 0.5}),
		mk2("RAPID-pro", []float64{1.6, 1.7, 1.6, 1.7}, []float64{0.7, 0.8, 0.7, 0.8}),
	}
	tests = significance(results, []string{"click@10", "ndcg@5"})
	want := []Significance{
		{Metric: "click@10", Model: "RAPID-det", ModelMean: 1.55, Baseline: "SRGA", BaselineMean: 1.35, Significant: true},
		{Metric: "click@10", Model: "RAPID-pro", ModelMean: 1.65, Baseline: "SRGA", BaselineMean: 1.35, Significant: true},
		{Metric: "ndcg@5", Model: "RAPID-det", ModelMean: 0.45, Baseline: "DESA", BaselineMean: 0.55, Significant: false},
		{Metric: "ndcg@5", Model: "RAPID-pro", ModelMean: 0.75, Baseline: "DESA", BaselineMean: 0.55, Significant: true},
	}
	if len(tests) != len(want) {
		t.Fatalf("got %d tests, want %d: %+v", len(tests), len(want), tests)
	}
	for i, w := range want {
		got := tests[i]
		if got.Metric != w.Metric || got.Model != w.Model || got.Baseline != w.Baseline ||
			!near(got.ModelMean, w.ModelMean) || !near(got.BaselineMean, w.BaselineMean) ||
			got.Significant != w.Significant || (w.Significant && got.P >= 0.05) {
			t.Fatalf("test %d = %+v, want %+v", i, got, w)
		}
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestSmokeAllDrivers(t *testing.T) {
	if testing.Short() {
		t.Skip("driver smoke test trains many models")
	}
	// Every table/figure driver must run end-to-end at smoke scale, and
	// print what testdata/drivers.golden holds.
	opt := tinyOptions(47)
	one := func(tbl *Table, err error) ([]*Table, error) { return []*Table{tbl}, err }
	runs := []struct {
		id     string
		run    func() ([]*Table, error)
		roster []string // every row name, in some order; nil skips the check
	}{
		{"table2b", func() ([]*Table, error) { return RunTable2(0.9, opt) }, fullRoster},
		{"table3", func() ([]*Table, error) { return one(RunTable3(opt)) }, append(slices.Clip(fullRoster), "impv% (vs PRM)")},
		{"table4", func() ([]*Table, error) { return RunTable4(opt) }, fullRoster},
		{"table5", func() ([]*Table, error) { return one(RunTable5(opt)) }, []string{"RAPID-3", "RAPID-5", "RAPID-10"}},
		{"table6", func() ([]*Table, error) { return one(RunTable6(opt)) }, neuralRoster},
		{"fig3", func() ([]*Table, error) { return RunFig3(opt) }, []string{"RAPID", "RAPID-RNN", "RAPID-mean", "RAPID-det", "RAPID-trans"}},
		{"fig4", func() ([]*Table, error) { return RunFig4(opt) }, []string{"8", "16", "32", "64"}},
		{"fig5", func() ([]*Table, error) { return one(RunFig5(opt)) }, nil},
		{"regret", func() ([]*Table, error) {
			tbl, _ := RunRegret(RegretOptions{Rounds: 300, Checkpoint: 100, Seed: opt.Seed, SScale: 0.1})
			return []*Table{tbl}, nil
		}, []string{"100", "200", "300"}},
		{"divfn", func() ([]*Table, error) { return one(RunDivFnAblation(opt)) }, []string{"prob-coverage", "saturated-coverage", "facility-location"}},
		{"robust", func() ([]*Table, error) { return one(RunRobustness(opt)) }, []string{"Init", "PRM", "RAPID-pro"}},
		{"extended", func() ([]*Table, error) { return one(RunExtended(opt)) }, extendedRoster},
		{"personal", func() ([]*Table, error) { return one(RunPersonalization(opt)) }, []string{"Init", "PRM", "RAPID-pro"}},
	}
	var got strings.Builder
	for _, r := range runs {
		tables, err := r.run()
		if err != nil {
			t.Fatalf("%s: %v", r.id, err)
		}
		fmt.Fprintf(&got, "==== %s ====\n", r.id)
		for _, tbl := range tables {
			checkCells(t, r.id, tbl, r.roster)
			if r.id == "table6" {
				// Wall-clock cells differ from run to run.
				for _, row := range tbl.Rows {
					row.Cells[1], row.Cells[2], row.Cells[3] = Cell{Text: "-"}, Cell{Text: "-"}, Cell{Text: "-"}
				}
			}
			got.WriteString(tbl.String())
			if err := tbl.WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkDriversGolden(t, got.String())
}

// checkCells asserts that a driver's numbers are numbers: every numeric
// cell is finite, every cell of a click/ndcg/div/satis/rev@k column is
// non-negative, and the row names are the driver's roster.
func checkCells(t *testing.T, id string, tbl *Table, roster []string) {
	t.Helper()
	nonNegative := regexp.MustCompile(`^(pbm-)?(click|ndcg|div|satis|rev)@\d+`)
	names := map[string]bool{}
	for _, r := range tbl.Rows {
		names[r.Name] = true
		if roster != nil && !slices.Contains(roster, r.Name) {
			t.Errorf("%s: row %q is not in the roster %q", id, r.Name, roster)
		}
		if len(r.Cells) != len(tbl.Header)-1 {
			t.Errorf("%s: row %q has %d cells under %d columns", id, r.Name, len(r.Cells), len(tbl.Header)-1)
			continue
		}
		for j, c := range r.Cells {
			col := tbl.Header[j+1]
			if c.Verb == "" {
				continue
			}
			if math.IsNaN(c.V) || math.IsInf(c.V, 0) {
				t.Errorf("%s: %s %s = %v", id, r.Name, col, c.V)
			}
			if nonNegative.MatchString(col) && c.V < 0 {
				t.Errorf("%s: %s %s = %v < 0", id, r.Name, col, c.V)
			}
		}
	}
	for _, name := range roster {
		if !names[name] {
			t.Errorf("%s: %q missing from %q", id, name, tbl.Title)
		}
	}
}

// checkDriversGolden compares every driver's output at smoke scale with
// testdata/drivers.golden. Refresh with:
//
//	go test ./internal/experiments -run TestSmokeAllDrivers -update
func checkDriversGolden(t *testing.T, got string) {
	t.Helper()
	golden := filepath.Join("testdata", "drivers.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create it): %v", err)
	}
	if got != string(want) {
		t.Errorf("driver output drifted from %s (refresh with -update if intended)\n--- got ---\n%s", golden, got)
	}
}
