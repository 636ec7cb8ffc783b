package experiments

import (
	"fmt"
	"strconv"

	"repro/internal/bandit"
	"repro/internal/plot"
)

// RegretOptions sizes the Theorem 5.1 simulation.
type RegretOptions struct {
	Rounds     int
	Checkpoint int
	Seed       int64
	// SScale shrinks the theorem's (conservative) exploration constant;
	// 0.05–0.2 makes the √n shape visible at small horizons.
	SScale float64
}

// DefaultRegretOptions returns the harness defaults.
func DefaultRegretOptions(seed int64) RegretOptions {
	return RegretOptions{Rounds: 4000, Checkpoint: 250, Seed: seed, SScale: 0.1}
}

// RunRegret empirically verifies Theorem 5.1: the γ-scaled cumulative
// regret of linear RAPID with UCB grows ≈ √n, and the ablations (greedy
// without exploration, non-personalized diversity) accumulate more regret.
func RunRegret(opt RegretOptions) (*Table, []bandit.RegretCurve) {
	newEnv := func() *bandit.Env {
		return bandit.NewEnv(8, 5, 5, 50, 200, 30, opt.Seed)
	}
	modes := []bandit.Mode{bandit.UCB, bandit.Greedy, bandit.NoPersonal, bandit.Thompson}
	curves := make([]bandit.RegretCurve, 0, len(modes))
	for _, mode := range modes {
		curves = append(curves, bandit.SimulateRegret(newEnv(), mode, opt.Rounds, opt.Checkpoint, opt.SScale))
	}
	header := []string{"rounds", curves[0].Mode.String(), "c·√n ref"}
	for _, c := range curves[1:] {
		header = append(header, c.Mode.String())
	}
	tbl := &Table{
		Title:  "Theorem 5.1 — cumulative utility regret vs rounds",
		Header: header,
	}
	for i, p := range curves[0].Points {
		cells := []Cell{{V: p.CumRegret, Verb: "%.1f"}, {V: p.SqrtRef, Verb: "%.1f"}}
		// Every curve has the same checkpoints: one per Checkpoint rounds.
		for _, c := range curves[1:] {
			cells = append(cells, Cell{V: c.Points[i].CumRegret, Verb: "%.1f"})
		}
		tbl.addRow(strconv.Itoa(p.Round), cells...)
	}
	note := "fitted growth exponents α (regret ≈ c·n^α):"
	for _, c := range curves {
		note += fmt.Sprintf(" %s %.2f,", c.Mode, c.Alpha)
	}
	tbl.Notes = []string{
		note[:len(note)-1],
		"Theorem 5.1 predicts α ≈ 0.5 for the UCB variant (Õ(√n)).",
	}
	return tbl, curves
}

// RegretChart renders the Theorem 5.1 figure: one line per algorithm plus
// the c·√n reference of the first (UCB) curve.
func RegretChart(curves []bandit.RegretCurve) *plot.Chart {
	chart := &plot.Chart{
		Title:  "Theorem 5.1 — cumulative utility regret",
		XLabel: "rounds n",
		YLabel: "cumulative regret",
	}
	for ci, c := range curves {
		s := plot.Series{Name: c.Mode.String()}
		for _, p := range c.Points {
			s.X = append(s.X, float64(p.Round))
			s.Y = append(s.Y, p.CumRegret)
		}
		chart.Series = append(chart.Series, s)
		if ci == 0 {
			ref := plot.Series{Name: "c·√n reference"}
			for _, p := range c.Points {
				ref.X = append(ref.X, float64(p.Round))
				ref.Y = append(ref.Y, p.SqrtRef)
			}
			chart.Series = append(chart.Series, ref)
		}
	}
	return chart
}
