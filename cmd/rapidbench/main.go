// Command rapidbench regenerates the paper's tables and figures.
//
// Usage:
//
//	rapidbench -exp table2a [-scale 0.2] [-seed 42]
//
// Experiments: table2a table2b table2c table3 table4 table5 table6
// fig3 fig4 fig5 regret divfn robust extended personal all
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
)

func main() {
	var (
		exp    = flag.String("exp", "all", "experiment id (table2a..c, table3..6, fig3..5, regret, divfn, robust, extended, personal, all)")
		scale  = flag.Float64("scale", 0.25, "dataset scale factor (1.0 = full harness size)")
		seed   = flag.Int64("seed", 42, "random seed")
		asJSON = flag.Bool("json", false, "emit tables as JSON instead of aligned text")
		svg    = flag.String("svg", "", "write the regret figure to this SVG path (regret experiment only)")
	)
	flag.Parse()

	opt := experiments.DefaultOptions()
	opt.Scale = *scale
	opt.Seed = *seed
	opt.Log = os.Stderr
	emitJSON = *asJSON
	svgPath = *svg
	if err := run(*exp, opt, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "rapidbench: %v\n", err)
		os.Exit(1)
	}
}

// emitJSON switches table output to JSON (set by the -json flag);
// svgPath, when non-empty, receives the regret figure.
var (
	emitJSON bool
	svgPath  string
)

func emit(w io.Writer, t *experiments.Table) error {
	if emitJSON {
		return t.WriteJSON(w)
	}
	_, err := fmt.Fprintln(w, t)
	return err
}

func run(exp string, opt experiments.Options, w io.Writer) error {
	printTables := func(tables []*experiments.Table, err error) error {
		if err != nil {
			return err
		}
		for _, t := range tables {
			if err := emit(w, t); err != nil {
				return err
			}
		}
		return nil
	}
	printOne := func(t *experiments.Table, err error) error {
		if err != nil {
			return err
		}
		return emit(w, t)
	}
	switch exp {
	case "table2a":
		return printTables(experiments.RunTable2(0.5, opt))
	case "table2b":
		return printTables(experiments.RunTable2(0.9, opt))
	case "table2c":
		return printTables(experiments.RunTable2(1.0, opt))
	case "table3":
		return printOne(experiments.RunTable3(opt))
	case "table4":
		return printTables(experiments.RunTable4(opt))
	case "table5":
		return printOne(experiments.RunTable5(opt))
	case "table6":
		return printOne(experiments.RunTable6(opt))
	case "fig3":
		return printTables(experiments.RunFig3(opt))
	case "fig4":
		return printTables(experiments.RunFig4(opt))
	case "fig5":
		return printOne(experiments.RunFig5(opt))
	case "regret":
		tbl, curves := experiments.RunRegret(experiments.DefaultRegretOptions(opt.Seed))
		if svgPath != "" {
			f, err := os.Create(svgPath)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := experiments.RegretChart(curves).WriteSVG(f); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "rapidbench: wrote %s\n", svgPath)
		}
		return emit(w, tbl)
	case "divfn":
		return printOne(experiments.RunDivFnAblation(opt))
	case "robust":
		return printOne(experiments.RunRobustness(opt))
	case "extended":
		return printOne(experiments.RunExtended(opt))
	case "personal":
		return printOne(experiments.RunPersonalization(opt))
	case "all":
		for _, id := range []string{
			"table2a", "table2b", "table2c", "table3", "table4",
			"table5", "table6", "fig3", "fig4", "fig5", "regret",
			"divfn", "robust", "extended", "personal",
		} {
			fmt.Fprintf(w, "==== %s ====\n", id)
			if err := run(id, opt, w); err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
}
