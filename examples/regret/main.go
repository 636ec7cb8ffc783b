// Regret: an empirical check of Theorem 5.1. The linearized RAPID with UCB
// exploration is run against a DCM environment; its cumulative utility
// regret should track c·√n (the theorem's Õ(√n) bound), while the greedy
// (no exploration) and non-personalized ablations accumulate more regret.
package main

import (
	"fmt"
	"strings"

	rapid "repro"
)

func main() {
	opt := rapid.DefaultRegretOptions(42)
	opt.Rounds = 3000
	opt.Checkpoint = 200
	tbl, curves := rapid.RunRegret(opt)
	// The table pads its last column; no printed line ends in a space.
	for _, line := range strings.Split(tbl.String(), "\n") {
		fmt.Println(strings.TrimRight(line, " "))
	}

	// A tiny ASCII plot of the UCB curve vs the √n reference.
	ucb := curves[0]
	maxR := ucb.Points[len(ucb.Points)-1].CumRegret
	if ref := ucb.Points[len(ucb.Points)-1].SqrtRef; ref > maxR {
		maxR = ref
	}
	const width = 60
	fmt.Println("cumulative regret (·, UCB) vs c·√n reference (|):")
	for _, p := range ucb.Points {
		rPos := int(p.CumRegret / maxR * width)
		refPos := int(p.SqrtRef / maxR * width)
		line := make([]byte, width+1)
		for i := range line {
			line[i] = ' '
		}
		line[refPos] = '|'
		line[rPos] = '.'
		fmt.Printf("n=%5d %s\n", p.Round, strings.TrimRight(string(line), " "))
	}
	fmt.Printf("\nfitted exponent α=%.2f (theorem predicts ≈0.5)\n", ucb.Alpha)
}
