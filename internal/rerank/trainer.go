package rerank

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/nn"
)

// ListwiseModel is the contract between a learned re-ranker and the shared
// training loop: build one instance's scalar training loss on a tape the
// trainer owns and reuses, and expose the parameters the loop updates. Each
// model also carries the TrainConfig it is built with and hands it to
// TrainListwise in its Fit. Net and core.Model implement Loss as the BCE of
// their logits against the click labels (Eq. 11); Seq2Slate as its
// teacher-forced pointer cross-entropy.
type ListwiseModel interface {
	// Loss returns the 1×1 loss node of the instance. train distinguishes
	// stochastic behavior (e.g. RAPID-pro samples ξ during training but
	// uses the UCB at inference); validation calls it with train false.
	//
	// The parallel trainer calls Loss from multiple goroutines at once
	// (distinct tapes, distinct instances), so the method must not mutate
	// shared model state. Models with train-time randomness implement
	// batchPreparer to move their random draws onto the trainer goroutine.
	Loss(t *nn.Tape, inst *Instance, train bool) *nn.Node
	// Params exposes the trainable parameters.
	Params() *nn.ParamSet
}

// batchPreparer is an optional ListwiseModel extension for models whose
// training-time forward pass is stochastic. The trainer calls
// PrepareInstance sequentially — in batch order, before any worker touches
// the batch — so the model can pre-draw its random numbers from its own RNG
// in a deterministic order and stash them per instance. Loss(train=true)
// then consumes the stashed draws instead of the RNG, which keeps the
// forward pass read-only (race-free) and the RNG stream independent of
// worker scheduling.
type batchPreparer interface {
	PrepareInstance(inst *Instance)
}

// TrainConfig bundles the optimization hyper-parameters of TrainListwise
// (paper Section IV-C: Adam).
type TrainConfig struct {
	Epochs    int
	LR        float64
	BatchSize int     // gradient-accumulation batch; ≥1
	ClipNorm  float64 // global-norm gradient clip; 0 disables
	Seed      int64
	// Workers caps the goroutines that evaluate forward/backward passes in
	// parallel within one gradient-accumulation batch. 0 means
	// GOMAXPROCS(0); it is further clamped to BatchSize. Any value yields
	// bitwise-identical training to Workers=1 for the same seed: each batch
	// slot accumulates into its own gradient shadow and the shadows are
	// reduced in slot order, so float summation order never depends on
	// scheduling.
	Workers int
	// Observer, when non-nil, receives a full EpochStats record after each
	// epoch — the training-telemetry hook behind rapidtrain's progress
	// lines, checkpoints and /metrics debug port. It fires exactly once per
	// epoch on the trainer goroutine (never a worker), so an implementation
	// may read model state without locking. A nil observer costs nothing on
	// the hot path.
	Observer EpochObserver
	// ValidFrac, when positive, holds out that fraction of the training
	// instances (the tail, deterministically) as a validation split and
	// enables early stopping: training halts once the validation loss has
	// not improved for Patience consecutive epochs, and the best-epoch
	// parameters are restored.
	ValidFrac float64
	// Patience is the early-stopping patience in epochs (default 2 when
	// ValidFrac > 0).
	Patience int
}

// EpochStats is the per-epoch telemetry record handed to
// TrainConfig.Observer. Counts are per-epoch deltas (not running totals);
// the observer owns any accumulation.
type EpochStats struct {
	// Epoch is the zero-based epoch index; Epochs the configured total
	// (early stopping may end the run before Epoch reaches Epochs-1).
	Epoch, Epochs int
	// Loss is the epoch's mean training loss.
	Loss float64
	// ValidLoss is the held-out validation loss, NaN when the run has no
	// validation split.
	ValidLoss float64
	// Duration is the epoch's wall-clock time, including validation.
	Duration time.Duration
	// Steps is the number of optimizer steps applied; DroppedSteps the
	// steps abandoned because the accumulated gradient was non-finite.
	Steps, DroppedSteps int
	// Instances is the number of instances whose loss entered the epoch
	// mean; SkippedInstances the instances whose loss came out NaN/Inf
	// (backward skipped). Both guards protect Adam's moment estimates — a
	// single NaN gradient would otherwise poison the moving averages for
	// every subsequent step.
	Instances, SkippedInstances int
}

// EpochObserver receives per-epoch training telemetry. Implementations must
// not retain the EpochStats value's address across calls (it is passed by
// value precisely so the trainer never allocates for it).
type EpochObserver interface {
	ObserveEpoch(EpochStats)
}

// emitEpoch dispatches one epoch record. Split out so the allocation guard
// (TestObserverNilZeroAllocs) can pin that a nil observer costs zero
// allocations, matching the tape-reuse guarantees of the parallel trainer.
func emitEpoch(o EpochObserver, es EpochStats) {
	if o != nil {
		o.ObserveEpoch(es)
	}
}

// DefaultTrainConfig returns the configuration RAPID and the listwise nets
// are built with (its seed being the model's); the experiment harness
// changes only the epochs.
func DefaultTrainConfig(seed int64) TrainConfig {
	return TrainConfig{Epochs: 8, LR: 0.005, BatchSize: 8, ClipNorm: 5, Seed: seed}
}

// slotState is the per-batch-slot accumulation state: a private gradient
// shadow and the slot's loss. Slot i always processes the i-th instance of a
// batch, regardless of which worker goroutine picks the job up, so the
// reduction over slots is stable. Tapes belong to the workers, not the
// slots: at most Workers passes run at once, and a tape (node arena plus
// buffer free-list) is by far the larger of the two.
type slotState struct {
	shadow *nn.GradShadow
	loss   float64
	ok     bool
}

// A shard is one worker's share of the batch reduction: a contiguous range
// of the parameters laid end to end, as segments of whole or partial
// parameters. Every element of the model is in exactly one shard.
type shard struct {
	segs   []segment
	finite bool // the last fold left every gradient in the shard finite
}

type segment struct {
	p      *nn.Param
	lo, hi int
}

// shardParams cuts the parameters, in registration order, into n contiguous
// ranges of as near equal size as whole elements allow.
func shardParams(params []*nn.Param, n int) []*shard {
	total := 0
	for _, p := range params {
		total += len(p.Value.Data)
	}
	shards := make([]*shard, n)
	pi, off := 0, 0 // the next element: params[pi], offset off
	for i := range shards {
		sh := &shard{}
		for left := (i+1)*total/n - i*total/n; left > 0; {
			size := len(params[pi].Value.Data)
			take := min(size-off, left)
			sh.segs = append(sh.segs, segment{params[pi], off, off + take})
			left -= take
			if off += take; off == size {
				pi, off = pi+1, 0
			}
		}
		shards[i] = sh
	}
	return shards
}

// fold adds the shadows into the shard's gradients, slots in the given
// (ascending) order for every element, and zeroes them; scales the sums by
// 1/len(shadows) when more than one slot contributed; and records whether
// every result is finite.
func (sh *shard) fold(shadows []*nn.GradShadow) {
	inv := 1 / float64(len(shadows))
	sh.finite = true
	for _, sg := range sh.segs {
		for _, gs := range shadows {
			gs.FoldInto(sg.p, sg.lo, sg.hi)
		}
		g := sg.p.Grad.Data[sg.lo:sg.hi]
		for i := range g {
			if len(shadows) > 1 {
				g[i] *= inv
			}
			if math.IsNaN(g[i]) || math.IsInf(g[i], 0) {
				sh.finite = false
			}
		}
	}
}

// update applies the optimizer step Adam.Begin opened to the shard.
func (sh *shard) update(opt *nn.Adam) {
	for _, sg := range sh.segs {
		opt.Update(sg.p, sg.lo, sg.hi)
	}
}

// A job is one unit of a worker's work: a batch slot's forward/backward
// pass, or a reduction phase over one shard.
type job struct {
	slot int
	inst *Instance
	// Reduction phases set sh and leave inst nil.
	sh     *shard
	update bool // false: fold the ok slots' shadows; true: the Adam update
}

// TrainListwise optimizes the model's loss over the training instances
// with Adam, accumulating gradients over BatchSize instances per step.
// Within a batch the forward/backward passes run on up to cfg.Workers
// goroutines; gradients land in per-slot shadows that are
// folded into the parameters in slot order, so results are bitwise
// independent of the worker count. The same workers then run the batch's
// reduction, each over its own contiguous range of the parameters: the fold
// with the 1/batch scale and the finite check, and, once the serial global
// norm clip and Adam's bias corrections are done, Adam's element update.
// It returns the final epoch's mean loss.
func TrainListwise(m ListwiseModel, train []*Instance, cfg TrainConfig) (float64, error) {
	if cfg.BatchSize < 1 {
		cfg.BatchSize = 1
	}
	for _, inst := range train {
		if inst.Labels == nil {
			return 0, fmt.Errorf("rerank: training instance without labels (user %d)", inst.User)
		}
	}
	// Optional validation split for early stopping.
	var valid []*Instance
	if cfg.ValidFrac > 0 && len(train) >= 4 {
		n := int(float64(len(train)) * cfg.ValidFrac)
		if n < 1 {
			n = 1
		}
		valid = train[len(train)-n:]
		train = train[:len(train)-n]
	}
	patience := cfg.Patience
	if patience <= 0 {
		patience = 2
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.BatchSize {
		workers = cfg.BatchSize
	}

	opt := nn.NewAdam(cfg.LR)
	rng := rand.New(rand.NewSource(cfg.Seed))
	ps := m.Params()
	prep, _ := m.(batchPreparer)

	slots := make([]*slotState, cfg.BatchSize)
	for i := range slots {
		slots[i] = &slotState{shadow: nn.NewGradShadow(ps)}
	}
	params := ps.All()
	shards := shardParams(params, workers)
	okShadows := make([]*nn.GradShadow, 0, cfg.BatchSize)

	// A persistent worker pool for the whole run: jobs carry a slot index or
	// a shard, wg marks a phase's completion. Channel send/receive orders the
	// trainer's sequential work (instance prep, the serial parts of the
	// reduction) before the worker's job; wg.Wait orders every job of a
	// phase before what reads its results.
	jobs := make(chan job)
	var wg sync.WaitGroup
	defer close(jobs)
	for w := 0; w < workers; w++ {
		go func() {
			tape := nn.NewTape()
			for j := range jobs {
				switch {
				case j.inst != nil:
					runSlot(m, tape, slots[j.slot], j.inst)
				case j.update:
					j.sh.update(opt)
				default:
					j.sh.fold(okShadows)
				}
				wg.Done()
			}
		}()
	}
	// phase runs one reduction phase on every shard and waits for it.
	phase := func(update bool) {
		wg.Add(len(shards))
		for _, sh := range shards {
			jobs <- job{sh: sh, update: update}
		}
		wg.Wait()
	}

	var lastLoss float64
	bestValid := math.Inf(1)
	var bestSnapshot [][]float64
	bad := 0
	for e := 0; e < cfg.Epochs; e++ {
		epochStart := time.Now()
		perm := rng.Perm(len(train))
		var epochLoss float64
		counted, skipped, steps, dropped := 0, 0, 0, 0
		for start := 0; start < len(perm); start += cfg.BatchSize {
			end := min(start+cfg.BatchSize, len(perm))
			if prep != nil {
				// Sequential, in batch order: the model draws its
				// training-time randomness here so workers stay read-only.
				for _, pi := range perm[start:end] {
					prep.PrepareInstance(train[pi])
				}
			}
			n := end - start
			wg.Add(n)
			for s := 0; s < n; s++ {
				jobs <- job{slot: s, inst: train[perm[start+s]]}
			}
			wg.Wait()
			// Reduce in slot order — never in completion order.
			okShadows = okShadows[:0]
			for s := 0; s < n; s++ {
				sl := slots[s]
				if sl.ok {
					epochLoss += sl.loss
					counted++
					okShadows = append(okShadows, sl.shadow)
				} else {
					skipped++
				}
			}
			if len(okShadows) == 0 {
				continue
			}
			phase(false)
			if allFinite(shards) {
				if cfg.ClipNorm > 0 {
					ps.ClipGradNorm(cfg.ClipNorm)
				}
				opt.Begin(params)
				phase(true)
				steps++
			} else {
				// A finite loss can still backpropagate into NaN/Inf
				// gradients (e.g. a saturated softplus). Dropping the step
				// and zeroing the buffers keeps Adam's moment estimates
				// clean; applying it would corrupt them permanently.
				ps.ZeroGrad()
				dropped++
			}
		}
		if counted > 0 {
			lastLoss = epochLoss / float64(counted)
		} else {
			lastLoss = math.NaN()
		}
		// Validation runs before the observer so one record carries both
		// losses; the same value then drives early stopping.
		vl := math.NaN()
		if valid != nil {
			vl = validationLoss(m, valid)
		}
		emitEpoch(cfg.Observer, EpochStats{
			Epoch: e, Epochs: cfg.Epochs,
			Loss: lastLoss, ValidLoss: vl,
			Duration: time.Since(epochStart),
			Steps:    steps, DroppedSteps: dropped,
			Instances: counted, SkippedInstances: skipped,
		})
		if valid != nil {
			if vl < bestValid-1e-6 {
				bestValid = vl
				bestSnapshot = snapshotValues(ps)
				bad = 0
			} else {
				bad++
				if bad >= patience {
					break
				}
			}
		}
	}
	if bestSnapshot != nil {
		restoreValues(ps, bestSnapshot)
	}
	return lastLoss, nil
}

// runSlot executes one instance's forward/backward on the worker's tape,
// with parameter gradients redirected into the slot's private shadow. A
// NaN/Inf forward loss skips backward entirely so the garbage never reaches
// the gradient shadows.
func runSlot(m ListwiseModel, tape *nn.Tape, s *slotState, inst *Instance) {
	tape.Reset()
	tape.WithGrads(s.shadow)
	loss := m.Loss(tape, inst, true)
	lv := loss.Value.Data[0]
	if math.IsNaN(lv) || math.IsInf(lv, 0) {
		s.loss, s.ok = 0, false
		return
	}
	tape.Backward(loss)
	s.loss, s.ok = lv, true
}

// validationLoss computes the deterministic (inference-mode) mean loss over
// labeled instances without touching gradients. One pooled tape serves
// every instance; losses are summed in instance order.
func validationLoss(m ListwiseModel, insts []*Instance) float64 {
	if len(insts) == 0 {
		return 0
	}
	t := scoreTapes.Get().(*nn.Tape)
	var total float64
	for _, inst := range insts {
		t.Reset()
		total += m.Loss(t, inst, false).Value.Data[0]
	}
	t.Reset()
	scoreTapes.Put(t)
	return total / float64(len(insts))
}

func snapshotValues(ps *nn.ParamSet) [][]float64 {
	params := ps.All()
	out := make([][]float64, len(params))
	for i, p := range params {
		out[i] = append([]float64(nil), p.Value.Data...)
	}
	return out
}

func restoreValues(ps *nn.ParamSet, snap [][]float64) {
	for i, p := range ps.All() {
		copy(p.Value.Data, snap[i])
	}
}

func allFinite(shards []*shard) bool {
	for _, sh := range shards {
		if !sh.finite {
			return false
		}
	}
	return true
}
