// Package nn is a small neural-network library built for this reproduction:
// a reverse-mode automatic-differentiation tape over dense matrices, the
// recurrent and attention layers RAPID and its baselines require, and the
// Adam optimizer. Everything is stdlib-only and single-goroutine per tape.
//
// The usual pattern is:
//
//	tape := nn.NewTape()
//	out := layer.Forward(tape, tape.Constant(x))
//	loss := tape.SigmoidBCE(out, targets)
//	tape.Backward(loss)        // accumulates into Param.Grad
//	optimizer.Step(params)     // consumes and zeroes the gradients
//
// Hot paths reuse one tape across many forward/backward passes:
//
//	tape := nn.NewTapeCap(model.TapeCapHint())
//	for _, inst := range instances {
//		tape.Reset() // recycles every buffer the previous pass created
//		...
//	}
//
// A Tape owns the Value and Grad buffers of every non-leaf node it creates;
// Reset returns them to a size-keyed free-list (mat.Pool), so a reused tape
// runs its steady state with almost no allocation. Matrices passed to
// Constant remain caller-owned and are never recycled. See DESIGN.md
// "Buffer ownership".
package nn

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// opKind tags a node with the operation that produced it. Backward is a
// single switch over this tag — no per-node closures, so building a graph
// allocates nothing beyond the node arena and the pooled matrices.
type opKind uint8

const (
	opConst opKind = iota // leaf: caller-owned value, no gradient
	opUse                 // leaf: parameter; Grad aliases the Param's buffer
	opAdd
	opSub
	opMul
	opScale
	opMatMul
	opTranspose
	opAddRowB
	opConcatCols
	opConcatRows
	opSliceCols
	opSliceRows
	opSigmoid
	opTanh
	opReLU
	opSoftplus
	opSoftmaxRows
	opSum
	opMean
	opMeanRows
	opBCE
	opSoftmaxCE
	opLayerNorm
	opLSTM
)

// Node is one value in the computation graph. Value is the forward result.
// Grad accumulates ∂loss/∂Value during Backward; it is allocated lazily the
// first time a consumer propagates into it, so nodes whose gradient nothing
// needs (constants, dead branches) never pay for a buffer. For parameter
// nodes Grad aliases the owning Param's gradient (or its GradShadow slot)
// so repeated passes accumulate into the same buffer.
type Node struct {
	Value *mat.Matrix
	Grad  *mat.Matrix

	op        opKind
	needsGrad bool
	a, b, c   *Node   // fixed-arity inputs
	ins       []*Node // variadic inputs (concat ops)
	i0, i1    int     // slice bounds / class target
	f0        float64 // scale factor / 1/n / log-sum-exp
	aux, aux2 *mat.Matrix
	ts        []float64 // BCE targets (caller-owned, read-only)
}

// tapeChunk is the largest node-arena chunk. Chunks keep node pointers
// stable while the tape grows (a flat slice would move nodes on append); a
// tape sized below one chunk (NewTapeCap) uses chunks of its own size, so a
// small graph does not zero a full one.
const tapeChunk = 256

// Tape records nodes in topological (creation) order so Backward can run a
// single reverse sweep. A Tape is single-goroutine; concurrent training
// gives each worker its own tape. Create one per model and Reset it between
// passes — Reset recycles all tape-owned buffers, so steady-state forward/
// backward passes are nearly allocation-free.
type Tape struct {
	nodes  []*Node
	chunks [][]Node
	chunk  int // nodes per arena chunk
	used   int
	refs   []*Node
	pool   mat.Pool
	grads  *GradShadow
}

// NewTape returns an empty tape with a default capacity hint.
func NewTape() *Tape { return NewTapeCap(tapeChunk) }

// NewTapeCap returns an empty tape pre-sized for about n nodes, eliminating
// arena and index growth during the first passes. Models that know their
// per-instance graph size (see rerank.TapeSized) pass their estimate here.
func NewTapeCap(n int) *Tape {
	if n < 1 {
		n = 1
	}
	const maxPrealloc = 1 << 16
	if n > maxPrealloc {
		n = maxPrealloc
	}
	t := &Tape{nodes: make([]*Node, 0, n), chunk: min(n, tapeChunk)}
	for c := 0; c < (n+t.chunk-1)/t.chunk; c++ {
		t.chunks = append(t.chunks, make([]Node, t.chunk))
	}
	return t
}

// NumNodes returns the number of nodes recorded since the last Reset.
// Models use it to calibrate NewTapeCap hints.
func (t *Tape) NumNodes() int { return len(t.nodes) }

// WithGrads redirects the gradients of every parameter subsequently
// introduced by Use to the given shadow instead of the Param's own buffer.
// Parallel trainers give each accumulation slot its own shadow so backward
// passes on different goroutines never touch shared memory; pass nil to
// restore direct accumulation. Must not be called between building a graph
// and running its Backward.
func (t *Tape) WithGrads(gs *GradShadow) { t.grads = gs }

// Reset clears the tape for a fresh forward pass, recycling every
// tape-owned Value/Grad/auxiliary buffer into the tape's free-list. All
// nodes and matrices obtained from this tape before the call — including
// node Values — are invalid afterwards; copy anything that must survive.
func (t *Tape) Reset() {
	for _, n := range t.nodes {
		switch n.op {
		case opConst, opUse:
			// Value (and for opUse, Grad) owned by the caller or Param.
		default:
			t.pool.Put(n.Value)
			t.pool.Put(n.Grad)
			t.pool.Put(n.aux)
			t.pool.Put(n.aux2)
		}
	}
	t.nodes = t.nodes[:0]
	t.refs = t.refs[:0]
	t.used = 0
}

// alloc carves a node out of the arena and records it on the tape.
func (t *Tape) alloc(v *mat.Matrix, op opKind, needs bool) *Node {
	ci, off := t.used/t.chunk, t.used%t.chunk
	if ci == len(t.chunks) {
		t.chunks = append(t.chunks, make([]Node, t.chunk))
	}
	n := &t.chunks[ci][off]
	t.used++
	*n = Node{Value: v, op: op, needsGrad: needs}
	t.nodes = append(t.nodes, n)
	return n
}

// saveRefs copies a variadic input list into the tape's pointer arena so
// concat nodes don't retain caller slices. The full slice expression caps
// the result, keeping it immune to later arena growth.
func (t *Tape) saveRefs(ns []*Node) []*Node {
	start := len(t.refs)
	t.refs = append(t.refs, ns...)
	return t.refs[start:len(t.refs):len(t.refs)]
}

// sameShapeOrPanic guards element-wise ops against shape mismatches.
func sameShapeOrPanic(a, b *mat.Matrix, op string) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("%s: shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// gradOf returns n's gradient buffer, lazily allocating a zeroed one.
func (t *Tape) gradOf(n *Node) *mat.Matrix {
	if n.Grad == nil {
		n.Grad = t.pool.GetZeroed(n.Value.Rows, n.Value.Cols)
	}
	return n.Grad
}

// Constant wraps a matrix that requires no gradient. The matrix remains
// caller-owned: Reset never recycles it. No gradient buffer is ever
// allocated for a constant, and backward steps skip it entirely.
func (t *Tape) Constant(v *mat.Matrix) *Node {
	return t.alloc(v, opConst, false)
}

// Use introduces parameter p into the graph. The returned node's gradient
// buffer is p.Grad itself (or the tape's GradShadow slot for p, when one is
// installed), so Backward accumulates directly into the param.
func (t *Tape) Use(p *Param) *Node {
	n := t.alloc(p.Value, opUse, true)
	if t.grads != nil {
		n.Grad = t.grads.grad(p)
	} else {
		n.Grad = p.Grad
	}
	return n
}

// Backward seeds loss with gradient 1 and propagates through the tape in
// reverse creation order. loss must be a 1×1 node produced by this tape.
func (t *Tape) Backward(loss *Node) {
	if loss.Value.Rows != 1 || loss.Value.Cols != 1 {
		panic(fmt.Sprintf("nn: Backward target must be 1x1, got %dx%d", loss.Value.Rows, loss.Value.Cols))
	}
	t.gradOf(loss).Data[0] = 1
	for i := len(t.nodes) - 1; i >= 0; i-- {
		n := t.nodes[i]
		// Leaves have nothing to propagate; a nil Grad means no consumer
		// contributed anything (dead branch), so the node's gradient is an
		// all-zero no-op.
		if n.op <= opUse || !n.needsGrad || n.Grad == nil {
			continue
		}
		t.backstep(n)
	}
}

// backstep propagates n.Grad into n's inputs.
func (t *Tape) backstep(n *Node) {
	g := n.Grad
	switch n.op {
	case opAdd:
		if n.a.needsGrad {
			t.gradOf(n.a).AddInPlace(g)
		}
		if n.b.needsGrad {
			t.gradOf(n.b).AddInPlace(g)
		}
	case opSub:
		if n.a.needsGrad {
			t.gradOf(n.a).AddInPlace(g)
		}
		if n.b.needsGrad {
			t.gradOf(n.b).AddScaledInPlace(-1, g)
		}
	case opMul:
		if n.a.needsGrad {
			ga := t.gradOf(n.a)
			bv := n.b.Value.Data
			for i, gv := range g.Data {
				ga.Data[i] += gv * bv[i]
			}
		}
		if n.b.needsGrad {
			gb := t.gradOf(n.b)
			av := n.a.Value.Data
			for i, gv := range g.Data {
				gb.Data[i] += gv * av[i]
			}
		}
	case opScale:
		if n.a.needsGrad {
			t.gradOf(n.a).AddScaledInPlace(n.f0, g)
		}
	case opMatMul:
		// dA += dOut·Bᵀ ; dB += Aᵀ·dOut — fused, no transpose materialized.
		if n.a.needsGrad {
			mat.AddMatMulABT(t.gradOf(n.a), g, n.b.Value)
		}
		if n.b.needsGrad {
			mat.AddMatMulATB(t.gradOf(n.b), n.a.Value, g)
		}
	case opTranspose:
		if n.a.needsGrad {
			ga := t.gradOf(n.a)
			rows, cols := ga.Rows, ga.Cols
			for i := 0; i < rows; i++ {
				arow := ga.Data[i*cols : (i+1)*cols]
				for j := range arow {
					arow[j] += g.Data[j*rows+i]
				}
			}
		}
	case opAddRowB:
		if n.a.needsGrad {
			t.gradOf(n.a).AddInPlace(g)
		}
		if n.b.needsGrad {
			gb := t.gradOf(n.b)
			for i := 0; i < g.Rows; i++ {
				row := g.Row(i)
				for j, gv := range row {
					gb.Data[j] += gv
				}
			}
		}
	case opConcatCols:
		off := 0
		for _, in := range n.ins {
			if in.needsGrad {
				gi := t.gradOf(in)
				for i := 0; i < in.Value.Rows; i++ {
					grow := g.Row(i)[off : off+in.Value.Cols]
					irow := gi.Row(i)
					for j, gv := range grow {
						irow[j] += gv
					}
				}
			}
			off += in.Value.Cols
		}
	case opConcatRows:
		off := 0
		for _, in := range n.ins {
			sz := len(in.Value.Data)
			if in.needsGrad {
				gi := t.gradOf(in)
				src := g.Data[off : off+sz]
				for j, gv := range src {
					gi.Data[j] += gv
				}
			}
			off += sz
		}
	case opSliceCols:
		if n.a.needsGrad {
			ga := t.gradOf(n.a)
			from := n.i0
			for i := 0; i < g.Rows; i++ {
				grow := g.Row(i)
				arow := ga.Row(i)
				for j, gv := range grow {
					arow[from+j] += gv
				}
			}
		}
	case opSliceRows:
		if n.a.needsGrad {
			ga := t.gradOf(n.a)
			from := n.i0
			cols := ga.Cols
			for i := 0; i < g.Rows; i++ {
				grow := g.Row(i)
				arow := ga.Data[(from+i)*cols : (from+i+1)*cols]
				for j, gv := range grow {
					arow[j] += gv
				}
			}
		}
	case opSigmoid:
		if n.a.needsGrad {
			ga := t.gradOf(n.a)
			for i, y := range n.Value.Data {
				ga.Data[i] += g.Data[i] * y * (1 - y)
			}
		}
	case opTanh:
		if n.a.needsGrad {
			ga := t.gradOf(n.a)
			for i, y := range n.Value.Data {
				ga.Data[i] += g.Data[i] * (1 - y*y)
			}
		}
	case opReLU:
		if n.a.needsGrad {
			mat.ReLUGradInto(t.gradOf(n.a).Data, g.Data, n.a.Value.Data)
		}
	case opSoftplus:
		if n.a.needsGrad {
			ga := t.gradOf(n.a)
			for i, x := range n.a.Value.Data {
				ga.Data[i] += g.Data[i] * mat.Sigmoid(x)
			}
		}
	case opSoftmaxRows:
		if n.a.needsGrad {
			ga := t.gradOf(n.a)
			v := n.Value
			// For each row: dx_j = y_j (dy_j − Σ_k dy_k y_k).
			for i := 0; i < v.Rows; i++ {
				yrow := v.Row(i)
				gyrow := g.Row(i)
				garow := ga.Row(i)
				var dot float64
				for k, y := range yrow {
					dot += gyrow[k] * y
				}
				for j, y := range yrow {
					garow[j] += y * (gyrow[j] - dot)
				}
			}
		}
	case opSum:
		if n.a.needsGrad {
			ga := t.gradOf(n.a)
			g0 := g.Data[0]
			for i := range ga.Data {
				ga.Data[i] += g0
			}
		}
	case opMean:
		if n.a.needsGrad {
			ga := t.gradOf(n.a)
			g0 := g.Data[0] * n.f0
			for i := range ga.Data {
				ga.Data[i] += g0
			}
		}
	case opMeanRows:
		if n.a.needsGrad {
			ga := t.gradOf(n.a)
			inv := n.f0
			for i := 0; i < ga.Rows; i++ {
				arow := ga.Row(i)
				for j, gv := range g.Data {
					arow[j] += gv * inv
				}
			}
		}
	case opBCE:
		if n.a.needsGrad {
			ga := t.gradOf(n.a)
			g0 := g.Data[0] * n.f0
			lv := n.a.Value.Data
			for i, y := range n.ts {
				ga.Data[i] += g0 * (mat.Sigmoid(lv[i]) - y)
			}
		}
	case opSoftmaxCE:
		if n.a.needsGrad {
			ga := t.gradOf(n.a)
			g0 := g.Data[0]
			lse := n.f0
			for j, v := range n.a.Value.Data {
				p := math.Exp(v - lse)
				if j == n.i0 {
					p -= 1
				}
				ga.Data[j] += g0 * p
			}
		}
	case opLayerNorm:
		t.backLayerNorm(n)
	case opLSTM:
		t.backLSTM(n)
	default:
		panic(fmt.Sprintf("nn: backstep on unexpected op %d", n.op))
	}
}

// Add returns a + b.
func (t *Tape) Add(a, b *Node) *Node {
	sameShapeOrPanic(a.Value, b.Value, "nn: Add")
	v := t.pool.Get(a.Value.Rows, a.Value.Cols)
	bd := b.Value.Data
	for i, av := range a.Value.Data {
		v.Data[i] = av + bd[i]
	}
	out := t.alloc(v, opAdd, a.needsGrad || b.needsGrad)
	out.a, out.b = a, b
	return out
}

// Sub returns a − b.
func (t *Tape) Sub(a, b *Node) *Node {
	sameShapeOrPanic(a.Value, b.Value, "nn: Sub")
	v := t.pool.Get(a.Value.Rows, a.Value.Cols)
	bd := b.Value.Data
	for i, av := range a.Value.Data {
		v.Data[i] = av - bd[i]
	}
	out := t.alloc(v, opSub, a.needsGrad || b.needsGrad)
	out.a, out.b = a, b
	return out
}

// Mul returns the element-wise product a ⊙ b.
func (t *Tape) Mul(a, b *Node) *Node {
	sameShapeOrPanic(a.Value, b.Value, "nn: Mul")
	v := t.pool.Get(a.Value.Rows, a.Value.Cols)
	bd := b.Value.Data
	for i, av := range a.Value.Data {
		v.Data[i] = av * bd[i]
	}
	out := t.alloc(v, opMul, a.needsGrad || b.needsGrad)
	out.a, out.b = a, b
	return out
}

// Scale returns s·a for a fixed scalar s.
func (t *Tape) Scale(a *Node, s float64) *Node {
	v := t.pool.Get(a.Value.Rows, a.Value.Cols)
	for i, av := range a.Value.Data {
		v.Data[i] = s * av
	}
	out := t.alloc(v, opScale, a.needsGrad)
	out.a, out.f0 = a, s
	return out
}

// MatMul returns the matrix product a·b.
func (t *Tape) MatMul(a, b *Node) *Node {
	v := t.pool.Get(a.Value.Rows, b.Value.Cols)
	mat.MatMulInto(v, a.Value, b.Value)
	out := t.alloc(v, opMatMul, a.needsGrad || b.needsGrad)
	out.a, out.b = a, b
	return out
}

// Transpose returns aᵀ.
func (t *Tape) Transpose(a *Node) *Node {
	av := a.Value
	v := t.pool.Get(av.Cols, av.Rows)
	for i := 0; i < av.Rows; i++ {
		row := av.Data[i*av.Cols : (i+1)*av.Cols]
		for j, x := range row {
			v.Data[j*av.Rows+i] = x
		}
	}
	out := t.alloc(v, opTranspose, a.needsGrad)
	out.a = a
	return out
}

// addRowBroadcast returns a + 1·b where a is R×C and b is 1×C: b is added to
// every row of a. This is the bias pattern for dense layers over lists.
func (t *Tape) addRowBroadcast(a, b *Node) *Node {
	if b.Value.Rows != 1 || b.Value.Cols != a.Value.Cols {
		panic(fmt.Sprintf("nn: AddRowBroadcast wants 1x%d bias, got %dx%d", a.Value.Cols, b.Value.Rows, b.Value.Cols))
	}
	av := a.Value
	v := t.pool.Get(av.Rows, av.Cols)
	bd := b.Value.Data
	for i := 0; i < av.Rows; i++ {
		arow := av.Data[i*av.Cols : (i+1)*av.Cols]
		vrow := v.Data[i*av.Cols : (i+1)*av.Cols]
		for j, x := range arow {
			vrow[j] = x + bd[j]
		}
	}
	out := t.alloc(v, opAddRowB, a.needsGrad || b.needsGrad)
	out.a, out.b = a, b
	return out
}

// ConcatCols concatenates nodes horizontally: [a | b | …].
func (t *Tape) ConcatCols(ns ...*Node) *Node {
	rows, cols, needs := 0, 0, false
	for i, n := range ns {
		if i == 0 {
			rows = n.Value.Rows
		} else if n.Value.Rows != rows {
			panic(fmt.Sprintf("nn: ConcatCols row mismatch %d vs %d", n.Value.Rows, rows))
		}
		cols += n.Value.Cols
		needs = needs || n.needsGrad
	}
	v := t.pool.Get(rows, cols)
	for i := 0; i < rows; i++ {
		off := i * cols
		for _, n := range ns {
			copy(v.Data[off:off+n.Value.Cols], n.Value.Row(i))
			off += n.Value.Cols
		}
	}
	out := t.alloc(v, opConcatCols, needs)
	out.ins = t.saveRefs(ns)
	return out
}

// ConcatRows concatenates nodes vertically.
func (t *Tape) ConcatRows(ns ...*Node) *Node {
	rows, cols, needs := 0, 0, false
	for i, n := range ns {
		if i == 0 {
			cols = n.Value.Cols
		} else if n.Value.Cols != cols {
			panic(fmt.Sprintf("nn: ConcatRows col mismatch %d vs %d", n.Value.Cols, cols))
		}
		rows += n.Value.Rows
		needs = needs || n.needsGrad
	}
	v := t.pool.Get(rows, cols)
	off := 0
	for _, n := range ns {
		copy(v.Data[off:off+len(n.Value.Data)], n.Value.Data)
		off += len(n.Value.Data)
	}
	out := t.alloc(v, opConcatRows, needs)
	out.ins = t.saveRefs(ns)
	return out
}

// sliceCols returns columns [from, to) of a as a new node.
func (t *Tape) sliceCols(a *Node, from, to int) *Node {
	av := a.Value
	if from < 0 || to > av.Cols || from > to {
		panic(fmt.Sprintf("nn: SliceCols [%d,%d) out of range for %d cols", from, to, av.Cols))
	}
	v := t.pool.Get(av.Rows, to-from)
	for i := 0; i < av.Rows; i++ {
		copy(v.Row(i), av.Row(i)[from:to])
	}
	out := t.alloc(v, opSliceCols, a.needsGrad)
	out.a, out.i0, out.i1 = a, from, to
	return out
}

// SliceRows returns rows [from, to) of a as a new node.
func (t *Tape) SliceRows(a *Node, from, to int) *Node {
	av := a.Value
	if from < 0 || to > av.Rows || from > to {
		panic(fmt.Sprintf("nn: SliceRows [%d,%d) out of range for %d rows", from, to, av.Rows))
	}
	v := t.pool.Get(to-from, av.Cols)
	copy(v.Data, av.Data[from*av.Cols:to*av.Cols])
	out := t.alloc(v, opSliceRows, a.needsGrad)
	out.a, out.i0, out.i1 = a, from, to
	return out
}

// sigmoid applies the logistic function element-wise.
func (t *Tape) sigmoid(a *Node) *Node {
	v := t.pool.Get(a.Value.Rows, a.Value.Cols)
	mat.SigmoidInto(v.Data, a.Value.Data)
	out := t.alloc(v, opSigmoid, a.needsGrad)
	out.a = a
	return out
}

// Tanh applies tanh element-wise.
func (t *Tape) Tanh(a *Node) *Node {
	v := t.pool.Get(a.Value.Rows, a.Value.Cols)
	mat.TanhInto(v.Data, a.Value.Data)
	out := t.alloc(v, opTanh, a.needsGrad)
	out.a = a
	return out
}

// relu applies max(0, x) element-wise.
func (t *Tape) relu(a *Node) *Node {
	v := t.pool.Get(a.Value.Rows, a.Value.Cols)
	mat.ReLUInto(v.Data, a.Value.Data)
	out := t.alloc(v, opReLU, a.needsGrad)
	out.a = a
	return out
}

// Softplus applies log(1+e^x) element-wise, computed stably. Its derivative
// is the sigmoid. Used to keep standard deviations positive in the
// probabilistic re-ranking head.
func (t *Tape) Softplus(a *Node) *Node {
	v := t.pool.Get(a.Value.Rows, a.Value.Cols)
	mat.SoftplusInto(v.Data, a.Value.Data)
	out := t.alloc(v, opSoftplus, a.needsGrad)
	out.a = a
	return out
}

// SoftmaxRows applies a stable softmax to each row of a.
func (t *Tape) SoftmaxRows(a *Node) *Node {
	av := a.Value
	v := t.pool.Get(av.Rows, av.Cols)
	for i := 0; i < av.Rows; i++ {
		mat.SoftmaxInto(v.Row(i), av.Row(i))
	}
	out := t.alloc(v, opSoftmaxRows, a.needsGrad)
	out.a = a
	return out
}

// Sum reduces a to a 1×1 node containing the sum of its entries. No model
// calls it: it is the scalar loss the gradient checks in graph_test.go,
// layers_test.go and randomgraph_test.go reduce to, and its backward is a
// case of backstep's op switch, so it stays beside the ops it checks.
func (t *Tape) Sum(a *Node) *Node {
	v := t.pool.Get(1, 1)
	v.Data[0] = a.Value.Sum()
	out := t.alloc(v, opSum, a.needsGrad)
	out.a = a
	return out
}

// Mean reduces a to a 1×1 node containing the mean of its entries. Like
// Sum, it serves the gradient checks as a scalar loss and keeps its
// backward in backstep's op switch.
func (t *Tape) Mean(a *Node) *Node {
	v := t.pool.Get(1, 1)
	v.Data[0] = a.Value.Mean()
	out := t.alloc(v, opMean, a.needsGrad)
	out.a, out.f0 = a, 1/float64(len(a.Value.Data))
	return out
}

// MeanRows reduces a R×C node to 1×C by averaging over rows.
func (t *Tape) MeanRows(a *Node) *Node {
	av := a.Value
	r := av.Rows
	v := t.pool.GetZeroed(1, av.Cols)
	for i := 0; i < r; i++ {
		row := av.Row(i)
		for j, x := range row {
			v.Data[j] += x
		}
	}
	inv := 1.0
	if r > 0 {
		inv = 1 / float64(r)
	}
	v.ScaleInPlace(inv)
	out := t.alloc(v, opMeanRows, a.needsGrad)
	out.a, out.f0 = a, inv
	return out
}

// SigmoidBCE computes the mean binary cross-entropy between sigmoid(logits)
// and targets, where logits is L×1 and targets has length L. The fused form
// is numerically stable: loss_i = softplus(z_i) − y_i·z_i, d/dz = σ(z) − y.
// The targets slice is retained (not copied) until the tape is Reset; the
// caller must not mutate it before Backward.
func (t *Tape) SigmoidBCE(logits *Node, targets []float64) *Node {
	l := logits.Value
	if l.Cols != 1 || l.Rows != len(targets) {
		panic(fmt.Sprintf("nn: SigmoidBCE wants %dx1 logits for %d targets, got %dx%d", len(targets), len(targets), l.Rows, l.Cols))
	}
	var loss float64
	for i, y := range targets {
		z := l.Data[i]
		loss += mat.Softplus(z) - y*z
	}
	n := float64(len(targets))
	if n == 0 {
		n = 1
	}
	v := t.pool.Get(1, 1)
	v.Data[0] = loss / n
	out := t.alloc(v, opBCE, logits.needsGrad)
	out.a, out.f0, out.ts = logits, 1/n, targets
	return out
}

// SoftmaxCrossEntropy computes −log softmax(logits)[target] for a 1×C
// logits row, the pointer-network step loss. The fused form is stable
// (log-sum-exp) and its gradient is softmax − onehot(target).
func (t *Tape) SoftmaxCrossEntropy(logits *Node, target int) *Node {
	row := logits.Value
	if row.Rows != 1 || target < 0 || target >= row.Cols {
		panic(fmt.Sprintf("nn: SoftmaxCrossEntropy wants 1×C logits and target<C, got %dx%d target %d", row.Rows, row.Cols, target))
	}
	mx := math.Inf(-1)
	for _, v := range row.Data {
		if v > mx {
			mx = v
		}
	}
	var sum float64
	for _, v := range row.Data {
		sum += math.Exp(v - mx)
	}
	lse := mx + math.Log(sum)
	v := t.pool.Get(1, 1)
	v.Data[0] = lse - row.Data[target]
	out := t.alloc(v, opSoftmaxCE, logits.needsGrad)
	out.a, out.i0, out.f0 = logits, target, lse
	return out
}

// layerNormRows normalizes each row of a to zero mean / unit variance and
// applies a learned per-column gain g and bias b (both 1×C nodes).
func (t *Tape) layerNormRows(a, gain, bias *Node) *Node {
	rows, cols := a.Value.Rows, a.Value.Cols
	v := t.pool.Get(rows, cols)
	norm := t.pool.Get(rows, cols)  // x̂ before gain/bias, kept for backward
	invstd := t.pool.Get(1, rows+1) // row inverse std-devs, kept for backward
	for i := 0; i < rows; i++ {
		invstd.Data[i] = LayerNormRow(v.Row(i), norm.Row(i), a.Value.Row(i), gain.Value.Data, bias.Value.Data)
	}
	out := t.alloc(v, opLayerNorm, a.needsGrad || gain.needsGrad || bias.needsGrad)
	out.a, out.b, out.c = a, gain, bias
	out.aux, out.aux2 = norm, invstd
	return out
}

// LayerNormRow normalizes one row x to zero mean / unit variance into xhat,
// writes xhat·gain + bias into dst and returns the row's inverse standard
// deviation. Tape.LayerNormRows keeps xhat and the return value for its
// backward step; the tape-free inference forward needs neither and passes
// dst for xhat (dst and xhat may also alias x: each element is read before
// it is written).
func LayerNormRow(dst, xhat, x, gain, bias []float64) float64 {
	const eps = 1e-5
	var mu float64
	for _, v := range x {
		mu += v
	}
	mu /= float64(len(x))
	var va float64
	for _, v := range x {
		d := v - mu
		va += d * d
	}
	va /= float64(len(x))
	is := 1 / math.Sqrt(va+eps)
	for j, v := range x {
		nh := (v - mu) * is
		xhat[j] = nh
		dst[j] = nh*gain[j] + bias[j]
	}
	return is
}

// backLayerNorm is the LayerNormRows backward step, split out of the main
// switch for readability. It borrows one pooled scratch row for dx̂.
func (t *Tape) backLayerNorm(n *Node) {
	g := n.Grad
	a, gain, bias := n.a, n.b, n.c
	norm, invstd := n.aux, n.aux2
	rows, cols := norm.Rows, norm.Cols
	var ggain, gbias *mat.Matrix
	if gain.needsGrad {
		ggain = t.gradOf(gain)
	}
	if bias.needsGrad {
		gbias = t.gradOf(bias)
	}
	dxh := t.pool.Get(1, cols)
	for i := 0; i < rows; i++ {
		gout := g.Row(i)
		nrow := norm.Row(i)
		// Gradients through gain and bias.
		if ggain != nil {
			for j, gv := range gout {
				ggain.Data[j] += gv * nrow[j]
			}
		}
		if gbias != nil {
			for j, gv := range gout {
				gbias.Data[j] += gv
			}
		}
		if !a.needsGrad {
			continue
		}
		// Gradient through normalization:
		// dx = invstd/C · (C·dx̂ − Σdx̂ − x̂·Σ(dx̂·x̂)) with dx̂ = dout·gain.
		c := float64(cols)
		var sum, sumxh float64
		gd := gain.Value.Data
		for j, gv := range gout {
			d := gv * gd[j]
			dxh.Data[j] = d
			sum += d
			sumxh += d * nrow[j]
		}
		arow := t.gradOf(a).Row(i)
		is := invstd.Data[i]
		for j := range arow {
			arow[j] += is / c * (c*dxh.Data[j] - sum - nrow[j]*sumxh)
		}
	}
	t.pool.Put(dxh)
}
