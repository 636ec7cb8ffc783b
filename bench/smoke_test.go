package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetrics asserts res carries exactly the metrics of specs, each once
// (a map cannot hold a name twice), finite and with its unit.
func checkMetrics(t *testing.T, res *result, specs []metricSpec) {
	t.Helper()
	if len(res.Metrics) != len(specs) {
		t.Errorf("%s: %d metrics printed, %d specified", res.Workload, len(res.Metrics), len(specs))
	}
	for _, m := range specs {
		v, found := res.Metrics[m.Name]
		switch {
		case !metricName.MatchString(m.Name):
			t.Errorf("metric name %q is not made of letters, digits, _ . -", m.Name)
		case !found:
			t.Errorf("%s: metric %s missing", res.Workload, m.Name)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s: %s = %v", res.Workload, m.Name, v.Value)
		case v.Unit != m.Unit || v.Unit == "":
			t.Errorf("%s: %s has unit %q, want %q", res.Workload, m.Name, v.Unit, m.Unit)
		}
	}
}

// TestSmoke runs every workload for two short slices and its traced run for
// one pair, and checks that what is printed is what spec.go names.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives every workload")
	}
	if ms := refTime(); ms > 2*refNominalMS {
		t.Skipf("reference kernel takes %.1f ms here (race detector, or a stalled host): no slice would be valid", ms)
	}
	probeBudget.batches, probeBudget.batchMS, probeBudget.minCalls = 1, 2, 1
	cfg := runConfig{
		seed: 1, sliceDur: 40 * time.Millisecond, slices: 2, capS: 10,
		setups: 1, warmup: 60, pairs: 1, outDir: t.TempDir(),
	}
	for _, w := range workloads {
		res, err := runWorkload(w.Name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		checkMetrics(t, res, endToEnd)
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("%s: correct %v, attempted %d, failed %d", w.Name, res.Correct, res.Attempted, res.Failed)
		}
		for _, m := range endToEnd {
			if res.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, m.Name, res.Metrics[m.Name].Value)
			}
		}
		traced, err := traceWorkload(w.Name, cfg)
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		checkMetrics(t, traced, perLayer)
		if _, err := os.Stat(cfg.outDir + "/trace-" + w.Name + ".json"); err != nil {
			t.Errorf("%s: no span file: %v", w.Name, err)
		}
		// Layers off a workload's path read 0; the router is on one path only.
		if got := traced.Metrics["router.self_us_p50"].Value > 0; got != (w.Name == fleetC1Zipf) {
			t.Errorf("%s: router.self_us_p50 = %v", w.Name, traced.Metrics["router.self_us_p50"].Value)
		}
	}
}

// BENCHMARK.json tells the driver what this program prints; the two may not
// drift apart.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", file.RunSeconds, runSeconds)
	}
	if !reflect.DeepEqual(file.Workloads, workloads) {
		t.Errorf("workloads differ:\n file %v\n spec %v", file.Workloads, workloads)
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n file %v\n spec %v", file.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n file %v\n spec %v", file.PerLayer, perLayer)
	}
	for _, w := range workloads {
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
}
