// Command bench is the repository's benchmark: four workloads, seven
// end-to-end metrics, and a traced run that says where the time goes layer
// by layer. README.md in this directory explains what is measured and why;
// BENCHMARK.json at the repository root is the contract the driver reads.
//
//	bash bench/run.sh -seed 1            every workload, end-to-end metrics
//	bash bench/run.sh -seed 1 -trace 1   every workload, per-layer metrics and span files
//	bash bench/run.sh -agree 3           do two sets of three runs agree within the bounds?
//	bash bench/run.sh -workload bin_c1_unique -seed 1 -seconds 20 -trace 0   what the driver runs
//
// Every timing is taken in short slices bracketed by a fixed reference
// kernel and reported at reference speed (refkernel.go, normalise.go), so a
// run on a host that is slow today reads like a run on the same host
// yesterday.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
)

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in this process and print its result as the last line; empty runs all four, each in a process of its own")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Int("seconds", runSeconds, "length of the measured phase: 60 slices of seconds/60 each")
		trace    = flag.Int("trace", 0, "1: the traced run — per-layer metrics, spans written to bench/out/; 0: end-to-end metrics")
		agree    = flag.Int("agree", 0, "run two interleaved sets of this many full runs and compare their medians with the bounds")
	)
	flag.Parse()
	// The host has two CPUs; the servers and the load generator share them
	// in one process, as the workloads were calibrated.
	runtime.GOMAXPROCS(2)

	var err error
	switch {
	case flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1):
		err = fmt.Errorf("usage: bench [-workload name] [-seed n] [-seconds n] [-trace 0|1] [-agree n]")
	case *agree > 0:
		err = runAgree(*agree, *seed, *seconds)
	case *workload == "":
		err = runAll(*seed, *seconds, *trace)
	case !knownWorkload(*workload):
		err = fmt.Errorf("unknown workload %q", *workload)
	default:
		err = runOne(*workload, defaultConfig(*seed, *seconds), *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process. It prints the full result —
// raw values and sample counts beside each metric — and then, as the last
// line, the result in the driver's form.
func runOne(name string, cfg runConfig, traced bool) error {
	run := runWorkload
	if traced {
		run = traceWorkload
	}
	res, err := run(name, cfg)
	if err != nil {
		return err
	}
	full, err := json.Marshal(res)
	if err != nil {
		return err
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]metric{}}
	for name, v := range res.Metrics {
		last.Metrics[name] = metric{v.Value, v.Unit}
	}
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", full, line)
	return nil
}

// runChild runs one workload in a process of its own — so peak memory, GC
// state and caches never carry over from one workload to the next — and
// returns the full result it printed.
func runChild(name string, seed int64, seconds, trace int) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	var res result
	if err := json.NewDecoder(bytes.NewReader(raw)).Decode(&res); err != nil {
		return nil, fmt.Errorf("workload %s: unreadable result: %w", name, err)
	}
	return &res, nil
}

// report is what a run of all workloads prints.
type report struct {
	Seed       int64              `json:"seed"`
	RunSeconds int                `json:"run_seconds"`
	Env        map[string]any     `json:"env"`
	Bounds     map[string]float64 `json:"bounds,omitempty"`
	Workloads  []*result          `json:"workloads"`
}

func runAll(seed int64, seconds, trace int) error {
	rep := report{Seed: seed, RunSeconds: seconds, Env: map[string]any{
		"go": runtime.Version(), "goarch": runtime.GOARCH, "num_cpu": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "ref_nominal_ms": refNominalMS,
	}}
	if trace == 0 {
		rep.Bounds = map[string]float64{}
		for _, m := range endToEnd {
			rep.Bounds[m.Name] = m.Bound
		}
	}
	for _, w := range workloads {
		fmt.Fprintf(os.Stderr, "bench: %s ...\n", w.Name)
		res, err := runChild(w.Name, seed, seconds, trace)
		if err != nil {
			return err
		}
		rep.Workloads = append(rep.Workloads, res)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
