package rerank

import (
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/nn"
)

// noisyModel is a stochastic ListwiseModel for parallel-trainer tests: a
// dense layer whose training-time logits add Gaussian noise, mirroring
// RAPID-pro's reparameterization trick. It implements batchPreparer (noise
// is pre-drawn on the trainer goroutine) and TapeSized.
type noisyModel struct {
	ps    *nn.ParamSet
	d     *nn.Dense
	noise *rand.Rand
	pre   map[*Instance]*mat.Matrix
}

func newNoisyModel(featDim int, seed int64) *noisyModel {
	ps := nn.NewParamSet()
	return &noisyModel{
		ps:    ps,
		d:     nn.NewDense(ps, "noisy", featDim, 1, nn.Linear, rand.New(rand.NewSource(seed))),
		noise: rand.New(rand.NewSource(seed + 7)),
	}
}

func (m *noisyModel) Params() *nn.ParamSet { return m.ps }
func (m *noisyModel) TapeCapHint() int     { return 16 }

func (m *noisyModel) PrepareInstance(inst *Instance) {
	if m.pre == nil {
		m.pre = make(map[*Instance]*mat.Matrix)
	}
	xi := m.pre[inst]
	if xi == nil || xi.Rows != inst.L() {
		xi = mat.New(inst.L(), 1)
		m.pre[inst] = xi
	}
	for i := range xi.Data {
		xi.Data[i] = m.noise.NormFloat64()
	}
}

func (m *noisyModel) Logits(t *nn.Tape, inst *Instance, train bool) *nn.Node {
	out := m.d.Forward(t, t.Constant(inst.ListFeatures()))
	if train {
		xi := m.pre[inst]
		if xi == nil {
			xi = mat.New(inst.L(), 1)
			for i := range xi.Data {
				xi.Data[i] = m.noise.NormFloat64()
			}
		}
		out = t.Add(out, t.Constant(xi))
	}
	return out
}

func paramsBitwiseEqual(t *testing.T, a, b *nn.ParamSet) {
	t.Helper()
	ap, bp := a.All(), b.All()
	if len(ap) != len(bp) {
		t.Fatalf("param count %d vs %d", len(ap), len(bp))
	}
	for i := range ap {
		for k, v := range ap[i].Value.Data {
			if v != bp[i].Value.Data[k] {
				t.Fatalf("param %s[%d] diverges: %v vs %v", ap[i].Name, k, v, bp[i].Value.Data[k])
			}
		}
	}
}

// trainWithWorkers trains a fresh model on the given instances and returns
// its parameters and final loss.
func trainWithWorkers(t *testing.T, train []*Instance, modelSeed int64, workers int, noisy bool) (*nn.ParamSet, float64) {
	t.Helper()
	var m ListwiseModel
	if noisy {
		m = newNoisyModel(train[0].FeatureDim(), modelSeed)
	} else {
		m = newLinearModel(train[0].FeatureDim(), modelSeed)
	}
	cfg := TrainConfig{
		Epochs: 4, LR: 0.01, BatchSize: 4, ClipNorm: 5, Seed: 17,
		Workers: workers, ValidFrac: 0.2, Patience: 3,
	}
	loss, err := TrainListwise(m, train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m.Params(), loss
}

// TestParallelTrainSameSeedDeterministic is the tentpole determinism
// guarantee: any worker count produces bitwise-identical parameters to the
// sequential (Workers=1) path, because gradients land in per-slot shadows
// reduced in slot order.
func TestParallelTrainSameSeedDeterministic(t *testing.T) {
	train := testInstances(t, 25, true)
	for _, noisy := range []bool{false, true} {
		seqPS, seqLoss := trainWithWorkers(t, train, 3, 1, noisy)
		for _, workers := range []int{2, 4, 8} {
			ps, loss := trainWithWorkers(t, train, 3, workers, noisy)
			if loss != seqLoss {
				t.Fatalf("noisy=%v workers=%d: loss %v != sequential %v", noisy, workers, loss, seqLoss)
			}
			paramsBitwiseEqual(t, seqPS, ps)
		}
		// Workers=0 (GOMAXPROCS default) must take the same path.
		ps, _ := trainWithWorkers(t, train, 3, 0, noisy)
		paramsBitwiseEqual(t, seqPS, ps)
	}
}

// TestParallelTrainRepeatedRunsIdentical guards against residual
// nondeterminism (map iteration, pool reuse) across full runs in the same
// process.
func TestParallelTrainRepeatedRunsIdentical(t *testing.T) {
	train := testInstances(t, 15, true)
	first, _ := trainWithWorkers(t, train, 5, 4, true)
	second, _ := trainWithWorkers(t, train, 5, 4, true)
	paramsBitwiseEqual(t, first, second)
}

// TestParallelTrainRaceStress drives many workers over shared parameters,
// pooled matrices and pre-drawn noise. Run with -race this is the trainer's
// data-race canary (CI runs it that way; see .github/workflows/ci.yml).
func TestParallelTrainRaceStress(t *testing.T) {
	train := testInstances(t, 40, true)
	m := newNoisyModel(train[0].FeatureDim(), 9)
	cfg := TrainConfig{
		Epochs: 3, LR: 0.01, BatchSize: 8, ClipNorm: 5, Seed: 23,
		Workers: 8, ValidFrac: 0.25,
	}
	if _, err := TrainListwise(m, train, cfg); err != nil {
		t.Fatal(err)
	}
	finiteParams(t, m)
}
