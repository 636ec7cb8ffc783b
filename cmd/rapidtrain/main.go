// Command rapidtrain trains a RAPID model on a generated dataset and saves
// its parameters (gob) together with a JSON manifest describing the model
// geometry, so rapidserve can load and serve it.
//
// Usage:
//
//	rapidtrain -dataset movielens -scale 0.25 -out model.gob [-lambda 0.9]
//
// Robustness: every weights write (periodic epoch checkpoints and the final
// save) goes through a temp-file-plus-rename, so a crash mid-write never
// leaves a truncated model on disk; -resume warm-starts from a previous
// checkpoint trained with the same architecture flags; NaN/Inf training
// batches are skipped and counted rather than corrupting optimizer state.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/rerank"
)

type options struct {
	dataset   string
	scale     float64
	seed      int64
	lambda    float64
	out       string
	det       bool
	resume    string // checkpoint to warm-start from; "" trains from scratch
	ckptEvery int    // write a checkpoint every N epochs; 0 disables
	debugAddr string // serve /metrics and pprof here during training; "" disables
	publish   string // registry root to publish into as a new version; "" disables
}

func main() {
	var o options
	flag.StringVar(&o.dataset, "dataset", "movielens", "dataset preset: taobao, movielens, appstore")
	flag.Float64Var(&o.scale, "scale", 0.25, "dataset scale")
	flag.Int64Var(&o.seed, "seed", 42, "random seed")
	flag.Float64Var(&o.lambda, "lambda", 0.9, "DCM relevance-diversity tradeoff")
	flag.StringVar(&o.out, "out", "rapid-model.gob", "output model path (manifest written alongside with .json)")
	flag.BoolVar(&o.det, "det", false, "use the deterministic head instead of the probabilistic one")
	flag.StringVar(&o.resume, "resume", "", "checkpoint (.gob) to warm-start from; must match the architecture flags")
	flag.IntVar(&o.ckptEvery, "checkpoint-every", 1, "write an atomic checkpoint to -out every N epochs (0 disables)")
	flag.StringVar(&o.debugAddr, "debug-addr", "", "serve /metrics and /debug/pprof/ on this address while training (e.g. localhost:6060); empty disables")
	flag.StringVar(&o.publish, "publish", "", "model registry root: additionally publish the trained model into a fresh version directory (atomic; servable by rapidserve -model-root)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "rapidtrain: %v\n", err)
		os.Exit(1)
	}
}

func run(o options) error {
	var cfg dataset.Config
	switch o.dataset {
	case "taobao":
		cfg = dataset.TaobaoLike(o.seed)
	case "movielens":
		cfg = dataset.MovieLensLike(o.seed)
	case "appstore":
		cfg = dataset.AppStoreLike(o.seed)
	default:
		return fmt.Errorf("unknown dataset %q", o.dataset)
	}
	if o.resume != "" {
		// Pre-flight the checkpoint before spending minutes building data.
		if _, err := os.Stat(o.resume); err != nil {
			return fmt.Errorf("resume: %w", err)
		}
	}
	opt := experiments.DefaultOptions()
	opt.Scale = o.scale
	opt.Seed = o.seed
	opt.Log = os.Stderr

	rd, err := experiments.BuildRankedData(cfg, experiments.NewRankerByName("DIN", o.seed), opt)
	if err != nil {
		return err
	}
	env := experiments.BuildEnv(rd, o.lambda, opt)
	m := experiments.NewRAPID(env, opt, 12, func(c *core.Config) {
		if o.det {
			c.Output = core.Deterministic
		}
	})
	if o.resume != "" {
		f, err := os.Open(o.resume)
		if err != nil {
			return fmt.Errorf("resume: %w", err)
		}
		err = m.ParamSet().LoadStrict(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("resume checkpoint %s does not match the model architecture: %w", o.resume, err)
		}
		fmt.Fprintf(os.Stderr, "resumed from %s\n", o.resume)
	}

	// Training telemetry: every epoch feeds an obs registry (and a progress
	// line on stderr); -debug-addr exposes it live as /metrics plus pprof so
	// a long run can be watched and profiled without stopping it.
	reg := obs.NewRegistry()
	if o.debugAddr != "" {
		go func() {
			if err := http.ListenAndServe(o.debugAddr, obs.DebugMux(reg)); err != nil {
				fmt.Fprintf(os.Stderr, "debug server on %s: %v\n", o.debugAddr, err)
			}
		}()
		fmt.Fprintf(os.Stderr, "debug server: http://%s/metrics and /debug/pprof/\n", o.debugAddr)
	}

	// The observer also writes the periodic checkpoints and totals the
	// NaN/Inf guards (poisoned batches are skipped and counted rather than
	// corrupting Adam state), reported after training.
	tobs := &trainObserver{tel: obs.NewTrainTelemetry(reg), w: os.Stderr, model: m, out: o.out, ckptEvery: o.ckptEvery}
	m.TrainCfg.Observer = tobs
	if err := env.FitIfTrainable(m, opt); err != nil {
		return err
	}
	if tobs.skipped > 0 || tobs.dropped > 0 {
		fmt.Fprintf(os.Stderr, "training guards: skipped %d non-finite instances, dropped %d non-finite steps\n",
			tobs.skipped, tobs.dropped)
	}
	res := env.Evaluate(m, []int{5, 10})
	metrics := map[string]float64{}
	for _, k := range res.Metrics() {
		metrics[k] = res.Mean(k)
	}

	if err := m.ParamSet().SaveFileAtomic(o.out); err != nil {
		return err
	}
	manifest := engine.Manifest{Dataset: o.dataset, Lambda: o.lambda, Config: m.Cfg, Metrics: metrics}
	if err := engine.WriteManifestFileAtomic(engine.ManifestPath(o.out), manifest); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "saved %s (+ manifest); test metrics: %v\n", o.out, metrics)
	if o.publish != "" {
		label, err := registry.Publish(o.publish, "", m.ParamSet(), manifest)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "published version %s to %s (serve it with: rapidserve -model-root %s; activate later versions via the admin API)\n",
			label, o.publish, o.publish)
	}
	return nil
}

// trainObserver adapts rerank's epoch hook to the obs training telemetry,
// prints one progress line per epoch, checkpoints model to out every
// ckptEvery epochs (0 disables) and totals the guard counters. It runs on
// the trainer goroutine at epoch boundaries, so plain writes are safe; the
// telemetry side is atomic and therefore scrape-safe from the -debug-addr
// server.
type trainObserver struct {
	tel       *obs.TrainTelemetry
	w         io.Writer
	model     *core.Model
	out       string
	ckptEvery int

	skipped, dropped int
}

func (t *trainObserver) ObserveEpoch(es rerank.EpochStats) {
	t.skipped += es.SkippedInstances
	t.dropped += es.DroppedSteps
	if t.ckptEvery > 0 && (es.Epoch+1)%t.ckptEvery == 0 {
		if err := t.model.ParamSet().SaveFileAtomic(t.out); err != nil {
			fmt.Fprintf(t.w, "checkpoint epoch %d: %v\n", es.Epoch, err)
		}
	}
	t.tel.RecordEpoch(es.Loss, es.ValidLoss, es.Duration, es.Steps, es.Instances, es.SkippedInstances, es.DroppedSteps)
	line := fmt.Sprintf("epoch %d/%d loss=%.6f", es.Epoch+1, es.Epochs, es.Loss)
	if !math.IsNaN(es.ValidLoss) {
		line += fmt.Sprintf(" valid=%.6f", es.ValidLoss)
	}
	line += fmt.Sprintf(" %s steps=%d", es.Duration.Round(time.Millisecond), es.Steps)
	if es.SkippedInstances > 0 || es.DroppedSteps > 0 {
		line += fmt.Sprintf(" skipped=%d dropped=%d", es.SkippedInstances, es.DroppedSteps)
	}
	fmt.Fprintln(t.w, line)
}
