// Command rapidbench regenerates the paper's tables and figures.
//
// Usage:
//
//	rapidbench -exp table2a [-scale 0.2] [-seed 42]
//
// rapidbench -h lists the experiment ids.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	var ids []string
	for _, d := range drivers {
		ids = append(ids, d.id)
	}
	var (
		exp    = flag.String("exp", "all", "experiment id ("+strings.Join(ids, ", ")+", all)")
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

// drivers lists every experiment, in the order -exp all runs them.
var drivers = []struct {
	id  string
	run func(experiments.Options) ([]*experiments.Table, error)
}{
	{"table2a", table2(0.5)},
	{"table2b", table2(0.9)},
	{"table2c", table2(1.0)},
	{"table3", one(experiments.RunTable3)},
	{"table4", experiments.RunTable4},
	{"table5", one(experiments.RunTable5)},
	{"table6", one(experiments.RunTable6)},
	{"fig3", experiments.RunFig3},
	{"fig4", experiments.RunFig4},
	{"fig5", one(experiments.RunFig5)},
	{"regret", regret},
	{"divfn", one(experiments.RunDivFnAblation)},
	{"robust", one(experiments.RunRobustness)},
	{"extended", one(experiments.RunExtended)},
	{"personal", one(experiments.RunPersonalization)},
}

func table2(lambda float64) func(experiments.Options) ([]*experiments.Table, error) {
	return func(opt experiments.Options) ([]*experiments.Table, error) { return experiments.RunTable2(lambda, opt) }
}

func one(run func(experiments.Options) (*experiments.Table, error)) func(experiments.Options) ([]*experiments.Table, error) {
	return func(opt experiments.Options) ([]*experiments.Table, error) {
		t, err := run(opt)
		return []*experiments.Table{t}, err
	}
}

// regret runs the Theorem 5.1 simulation and, with -svg, writes its figure.
// The figure counts as written, and says so on opt.Log, only once its file
// has closed without error: a write can fail as late as the close.
func regret(opt experiments.Options) ([]*experiments.Table, error) {
	tbl, curves := experiments.RunRegret(experiments.DefaultRegretOptions(opt.Seed))
	if svgPath != "" {
		f, err := os.Create(svgPath)
		if err != nil {
			return nil, err
		}
		err = experiments.RegretChart(curves).WriteSVG(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		if opt.Log != nil {
			fmt.Fprintf(opt.Log, "rapidbench: wrote %s\n", svgPath)
		}
	}
	return []*experiments.Table{tbl}, nil
}

// run prints the tables of experiment exp, or of every experiment, each
// under a "==== id ====" line, when exp is "all".
func run(exp string, opt experiments.Options, w io.Writer) error {
	found := false
	for _, d := range drivers {
		if exp != "all" && exp != d.id {
			continue
		}
		found = true
		if exp == "all" {
			fmt.Fprintf(w, "==== %s ====\n", d.id)
		}
		tables, err := d.run(opt)
		if err != nil {
			return fmt.Errorf("%s: %w", d.id, err)
		}
		for _, t := range tables {
			if emitJSON {
				err = t.WriteJSON(w)
			} else {
				_, err = fmt.Fprintln(w, t)
			}
			if err != nil {
				return err
			}
		}
	}
	if !found {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}
