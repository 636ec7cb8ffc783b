package experiments

import (
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
	tbl.addRow("Init", "0.1234")
	tbl.addRow("RAPID-pro", "0.5678")
	s := tbl.String()
	for _, want := range []string{"t\n", "model", "click@5", "Init", "RAPID-pro", "note line"} {
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
	notes := significanceNotes(results, []string{"click@10"})
	if len(notes) != 1 {
		t.Fatalf("expected 1 note, got %d", len(notes))
	}
	if !strings.Contains(notes[0], "RAPID-pro") || !strings.Contains(notes[0], "PRM") {
		t.Fatalf("note should compare RAPID-pro to PRM: %s", notes[0])
	}
	if !strings.Contains(notes[0], "significant") {
		t.Fatalf("clear separation should be significant: %s", notes[0])
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
	notes = significanceNotes(results, []string{"click@10", "ndcg@5"})
	want := []string{
		"click@10: RAPID-det 1.5500 vs best baseline SRGA 1.3500",
		"click@10: RAPID-pro 1.6500 vs best baseline SRGA 1.3500",
		"ndcg@5: RAPID-det 0.4500 vs best baseline DESA 0.5500",
		"ndcg@5: RAPID-pro 0.7500 vs best baseline DESA 0.5500",
	}
	if len(notes) != len(want) {
		t.Fatalf("got %d notes, want %d: %q", len(notes), len(want), notes)
	}
	for i, w := range want {
		if !strings.HasPrefix(notes[i], w) {
			t.Fatalf("note %d = %q, want prefix %q", i, notes[i], w)
		}
	}
	if strings.Contains(notes[2], "significant") || !strings.Contains(notes[3], "significant") {
		t.Fatalf("only RAPID-pro beats DESA on ndcg@5: %q", notes[2:])
	}
}

func TestSmokeAllDrivers(t *testing.T) {
	if testing.Short() {
		t.Skip("driver smoke test trains many models")
	}
	// Every table/figure driver must run end-to-end at smoke scale.
	opt := tinyOptions(47)
	if _, err := RunTable2(0.9, opt); err != nil {
		t.Fatalf("table2: %v", err)
	}
	if _, err := RunTable3(opt); err != nil {
		t.Fatalf("table3: %v", err)
	}
	if _, err := RunTable4(opt); err != nil {
		t.Fatalf("table4: %v", err)
	}
	if _, err := RunTable5(opt); err != nil {
		t.Fatalf("table5: %v", err)
	}
	if _, err := RunTable6(opt); err != nil {
		t.Fatalf("table6: %v", err)
	}
	if _, err := RunFig3(opt); err != nil {
		t.Fatalf("fig3: %v", err)
	}
	if _, err := RunFig4(opt); err != nil {
		t.Fatalf("fig4: %v", err)
	}
	if _, err := RunFig5(opt); err != nil {
		t.Fatalf("fig5: %v", err)
	}
	if _, err := RunDivFnAblation(opt); err != nil {
		t.Fatalf("divfn: %v", err)
	}
	if _, err := RunRobustness(opt); err != nil {
		t.Fatalf("robust: %v", err)
	}
}
