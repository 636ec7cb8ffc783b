package experiments

import (
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/rerank"
)

// RunTable6 reproduces Table VI, the efficiency study: total training time
// (train-all), average training time per batch (train-b) and average
// inference time per batch (test-b) for PRM, DESA and RAPID on all three
// datasets. Absolute numbers are CPU wall-clock — the paper's are GPU — so
// the comparison of interest is the relative ordering between models.
func RunTable6(opt Options) (*Table, error) {
	tbl := &Table{
		Title:  "Table VI — training and inference time",
		Header: []string{"model", "dataset", "train-all", "train-b (ms)", "test-b (ms)"},
		Notes: []string{
			"CPU wall-clock (paper: NVIDIA 3080 / V100); compare relative ordering, not absolutes.",
			fmt.Sprintf("batch size %d; train-all covers %d epochs", batchForTiming, epochs(opt)),
		},
	}
	envs, err := allEnvs(opt)
	if err != nil {
		return nil, err
	}
	for _, env := range envs {
		for _, r := range buildRerankers(env, opt, neuralRoster) {
			ta, trb, teb, err := timeModel(env, r, opt)
			if err != nil {
				return nil, err
			}
			tbl.addRow(r.Name(), Cell{Text: env.Data.Name}, Cell{V: ta.Seconds(), Verb: "%.3fs"},
				Cell{V: trb, Verb: "%.1f"}, Cell{V: teb, Verb: "%.1f"})
		}
	}
	return tbl, nil
}

const batchForTiming = 16

func allEnvs(opt Options) ([]*Env, error) {
	var envs []*Env
	for _, cfg := range publicDatasets(opt) {
		rd, err := cachedRankedData(cfg, "DIN", opt)
		if err != nil {
			return nil, err
		}
		envs = append(envs, BuildEnv(rd, 0.9, opt))
	}
	rd, err := cachedRankedData(dataset.AppStoreLike(opt.Seed), "DIN", opt)
	if err != nil {
		return nil, err
	}
	envs = append(envs, BuildEnv(rd, appStoreLambda, opt))
	return envs, nil
}

// timeModel measures train-all (full Fit), train-b (one epoch's wall time
// divided by its batch count) and test-b (inference wall time per batch of
// test instances).
func timeModel(env *Env, r rerank.Reranker, opt Options) (trainAll time.Duration, trainBatchMS, testBatchMS float64, err error) {
	t, ok := r.(rerank.Trainable)
	if !ok {
		return 0, 0, 0, fmt.Errorf("experiments: %s is not trainable", r.Name())
	}
	start := time.Now()
	if err := t.Fit(env.Train); err != nil {
		return 0, 0, 0, err
	}
	trainAll = time.Since(start)
	batches := (len(env.Train) + batchForTiming - 1) / batchForTiming
	trainBatchMS = float64(trainAll.Milliseconds()) / float64(batches*epochs(opt))

	start = time.Now()
	for _, inst := range env.Test {
		r.Scores(inst)
	}
	infer := time.Since(start)
	testBatches := (len(env.Test) + batchForTiming - 1) / batchForTiming
	testBatchMS = float64(infer.Microseconds()) / 1000 / float64(testBatches)
	return trainAll, trainBatchMS, testBatchMS, nil
}
