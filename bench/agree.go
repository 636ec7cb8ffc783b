package main

import (
	"fmt"
	"os"
	"text/tabwriter"
)

// runAgree answers the question every later comparison rests on: do two
// sets of runs of the same code agree? It makes 2n full runs, alternately
// for set A and set B so both see the same drift of the host, each run with
// a seed of its own, and compares the sets' medians per workload and
// end-to-end metric with the metric's bound. It fails when any pair is
// further apart, in the direction that would count as a regression of B
// against A, than the bound allows.
func runAgree(n int, seed int64, seconds int) error {
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for i := 0; i < 2*n; i++ {
		set := i % 2
		fmt.Fprintf(os.Stderr, "bench: agree: run %d of %d (set %c)\n", i+1, 2*n, 'A'+set)
		for _, w := range workloads {
			res, err := runChild(w.Name, seed+int64(i), seconds, 0)
			if err != nil {
				return err
			}
			for _, m := range endToEnd {
				k := key{w.Name, m.Name}
				sets[set][k] = append(sets[set][k], res.Metrics[m.Name].Value)
			}
		}
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tmedian A\tmedian B\tB worse by\tspread A\tspread B\tbound\t")
	apart := 0
	for _, w := range workloads {
		for _, m := range endToEnd {
			a, b := sets[0][key{w.Name, m.Name}], sets[1][key{w.Name, m.Name}]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			mark := ""
			if worse > m.Bound {
				mark = " APART"
				apart++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%+.1f%%\t%.1f%%\t%.1f%%\t%.0f%%%s\t\n",
				w.Name, m.Name, ma, mb, 100*worse, 100*spread(a), 100*spread(b), 100*m.Bound, mark)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if apart > 0 {
		return fmt.Errorf("agree: %d of %d medians are further apart than their bound", apart, len(workloads)*len(endToEnd))
	}
	return nil
}

// spread is the distance between the first and third quartile as a share of
// the median, with the quartiles Python's statistics.quantiles(xs, n=4)
// gives (the driver's measure of run-to-run noise); 0 for fewer than two
// values.
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := sortedCopy(xs)
	quartile := func(q int) float64 {
		j := min(max(q*(n+1)/4, 1), n-1)
		delta := float64(q*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / median(s)
}
