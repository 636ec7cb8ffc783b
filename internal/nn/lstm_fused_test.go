package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// stepStates is the graph Tape.lstm replaced: one 18-node cell.Step per
// timestep from the zero state, reading seq's rows first to last (or last
// to first). It returns the hidden-state node of each row.
func stepStates(t *Tape, cell *LSTMCell, seq *Node, reverse bool) []*Node {
	steps := seq.Value.Rows
	h, c := cell.InitState(t)
	states := make([]*Node, steps)
	for s := 0; s < steps; s++ {
		r := lstmRow(s, steps, reverse)
		h, c = cell.Step(t, t.SliceRows(seq, r, r+1), h, c)
		states[r] = h
	}
	return states
}

// stepForward, stepLast and stepBiLSTM are LSTM.Forward, LSTM.Last and
// BiLSTM.Forward as they were built on stepStates.
func stepForward(t *Tape, cell *LSTMCell, seq *Node, reverse bool) *Node {
	states := stepStates(t, cell, seq, reverse)
	if len(states) == 0 {
		return t.Constant(mat.New(0, cell.Hidden))
	}
	return t.ConcatRows(states...)
}

func stepLast(t *Tape, cell *LSTMCell, seq *Node) *Node {
	states := stepStates(t, cell, seq, false)
	if len(states) == 0 {
		h, _ := cell.InitState(t)
		return h
	}
	return states[len(states)-1]
}

func stepBiLSTM(t *Tape, b *BiLSTM, seq *Node) *Node {
	if seq.Value.Rows == 0 {
		return t.Constant(mat.New(0, 2*b.Fwd.Hidden))
	}
	fwd := stepStates(t, b.Fwd, seq, false)
	bwd := stepStates(t, b.Bwd, seq, true)
	rows := make([]*Node, len(fwd))
	for i := range rows {
		rows[i] = t.ConcatCols(fwd[i], bwd[i])
	}
	return t.ConcatRows(rows...)
}

// sameBits reports the first element where a and b differ in bit pattern.
func sameBits(a, b *mat.Matrix) (int, bool) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return -1, false
	}
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) {
			return i, false
		}
	}
	return 0, true
}

// TestFusedLSTMMatchesStepGraph is the fused recurrence's contract: its
// output and every gradient it produces — ∂W and ∂b of both cells, ∂seq when
// the sequence carries one — are bitwise those of the step graph, under a
// random upstream gradient, for every length (0, the 4-step fold's edges, a
// full list), width, direction and layer form, with and without a
// GradShadow.
func TestFusedLSTMMatchesStepGraph(t *testing.T) {
	layers := []struct {
		name        string
		fused, step func(*Tape, *BiLSTM, *Node) *Node
	}{
		{"Forward",
			func(tp *Tape, b *BiLSTM, seq *Node) *Node { return (&LSTM{Cell: b.Fwd}).Forward(tp, seq) },
			func(tp *Tape, b *BiLSTM, seq *Node) *Node { return stepForward(tp, b.Fwd, seq, false) }},
		{"reverse",
			func(tp *Tape, b *BiLSTM, seq *Node) *Node { return tp.lstm(b.Bwd, seq, true) },
			func(tp *Tape, b *BiLSTM, seq *Node) *Node { return stepForward(tp, b.Bwd, seq, true) }},
		{"Last",
			func(tp *Tape, b *BiLSTM, seq *Node) *Node { return (&LSTM{Cell: b.Fwd}).Last(tp, seq) },
			func(tp *Tape, b *BiLSTM, seq *Node) *Node { return stepLast(tp, b.Fwd, seq) }},
		{"BiLSTM",
			func(tp *Tape, b *BiLSTM, seq *Node) *Node { return b.Forward(tp, seq) },
			stepBiLSTM},
	}
	rng := rand.New(rand.NewSource(25))
	for _, steps := range []int{0, 1, 2, 3, 4, 5, 7, 20, 64} {
		for _, hidden := range []int{1, 3, 16} {
			for _, in := range []int{1, 5, 27} {
				ps := NewParamSet()
				bi := NewBiLSTM(ps, "bi", in, hidden, rng)
				xs := ps.New("seq", mat.RandNormal(steps, in, 0, 1, rng))
				for _, p := range ps.All() {
					for i := range p.Value.Data {
						p.Value.Data[i] += 0.3 * rng.NormFloat64()
					}
				}
				for _, l := range layers {
					for _, gradSeq := range []bool{false, true} {
						for _, shadow := range []bool{false, true} {
							run := func(build func(*Tape, *BiLSTM, *Node) *Node) (*mat.Matrix, []*mat.Matrix) {
								ps.ZeroGrad()
								tp := NewTape()
								var gs *GradShadow
								if shadow {
									gs = NewGradShadow(ps)
									tp.WithGrads(gs)
								}
								seq := tp.Constant(xs.Value)
								if gradSeq {
									seq = tp.Use(xs)
								}
								out := build(tp, bi, seq)
								up := mat.RandNormal(out.Value.Rows, out.Value.Cols, 0, 1, rand.New(rand.NewSource(int64(steps))))
								tp.Backward(tp.Sum(tp.Mul(out, tp.Constant(up))))
								var grads []*mat.Matrix
								for _, p := range ps.All() {
									g := p.Grad
									if gs != nil {
										g = gs.grad(p)
									}
									grads = append(grads, g.Clone())
								}
								return out.Value.Clone(), grads
							}
							wantOut, want := run(l.step)
							gotOut, got := run(l.fused)
							name := fmt.Sprintf("%s L=%d hidden=%d in=%d gradSeq=%v shadow=%v", l.name, steps, hidden, in, gradSeq, shadow)
							if i, ok := sameBits(gotOut, wantOut); !ok {
								t.Fatalf("%s: output differs at %d", name, i)
							}
							for pi, p := range ps.All() {
								if i, ok := sameBits(got[pi], want[pi]); !ok {
									t.Fatalf("%s: ∂%s differs at %d", name, p.Name, i)
								}
							}
						}
					}
				}
			}
		}
	}
}

// BenchmarkBiLSTMTrain is the listwise encoder's training pass at the
// benchmark's geometry (20 items of 27 features, hidden 16): forward and
// backward on a reused tape. BenchmarkBiLSTMTrainStepGraph is the same pass
// on the step graph the fused op replaced.
func BenchmarkBiLSTMTrain(b *testing.B) { benchBiLSTMTrain(b, (*BiLSTM).Forward) }

func BenchmarkBiLSTMTrainStepGraph(b *testing.B) {
	benchBiLSTMTrain(b, func(bi *BiLSTM, t *Tape, seq *Node) *Node { return stepBiLSTM(t, bi, seq) })
}

func benchBiLSTMTrain(b *testing.B, forward func(*BiLSTM, *Tape, *Node) *Node) {
	rng := rand.New(rand.NewSource(27))
	bi := NewBiLSTM(NewParamSet(), "bi", 27, 16, rng)
	seq := mat.RandNormal(20, 27, 0, 1, rng)
	tape := NewTape()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tape.Reset()
		tape.Backward(tape.Sum(forward(bi, tape, tape.Constant(seq))))
	}
}
