package main

import (
	"bytes"
	"encoding/xml"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func smokeOptions() experiments.Options {
	opt := experiments.DefaultOptions()
	opt.Scale = 0.02
	opt.Epochs = 1
	opt.Seed = 7
	return opt
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("nope", smokeOptions(), &strings.Builder{}); err == nil {
		t.Fatal("unknown experiment id accepted")
	}
}

func TestRunRegretExperiment(t *testing.T) {
	var sb strings.Builder
	if err := run("regret", smokeOptions(), &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "regret") {
		t.Fatalf("regret output missing table: %s", sb.String())
	}
}

// TestRegretSVG: -svg writes a figure that parses as XML and starts with
// <svg, and says so; a path under a missing directory is an error, with no
// "wrote" line. (A write that fails only at close cannot be provoked
// portably; regret checks the close error the same way.)
func TestRegretSVG(t *testing.T) {
	defer func(old string) { svgPath = old }(svgPath)
	opt := smokeOptions()
	var log strings.Builder
	opt.Log = &log

	svgPath = filepath.Join(t.TempDir(), "regret.svg")
	if err := run("regret", opt, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(svgPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "<svg") {
		t.Fatalf("figure starts %q, want <svg", data[:min(len(data), 40)])
	}
	for dec := xml.NewDecoder(bytes.NewReader(data)); ; {
		if _, err := dec.Token(); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			t.Fatalf("figure is not well-formed XML: %v", err)
		}
	}
	if !strings.Contains(log.String(), "rapidbench: wrote "+svgPath) {
		t.Fatalf("no wrote line in %q", log.String())
	}

	log.Reset()
	svgPath = filepath.Join(t.TempDir(), "missing", "regret.svg")
	if err := run("regret", opt, io.Discard); err == nil {
		t.Fatal("a figure under a missing directory reported no error")
	}
	if strings.Contains(log.String(), "wrote") {
		t.Fatalf("failed write still logged %q", log.String())
	}
}

func TestRunTable5Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	var sb strings.Builder
	if err := run("table5", smokeOptions(), &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"RAPID-3", "RAPID-5", "RAPID-10", "rev@10"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table5 output missing %q:\n%s", want, out)
		}
	}
}

func TestRunFig5Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	var sb strings.Builder
	if err := run("fig5", smokeOptions(), &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "diverse") || !strings.Contains(sb.String(), "focused") {
		t.Fatalf("fig5 output missing case users:\n%s", sb.String())
	}
}
