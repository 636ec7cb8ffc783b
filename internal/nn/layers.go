package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/mat"
)

// Activation selects the non-linearity applied by Dense and MLP layers.
type Activation int

// Supported activations.
const (
	Linear Activation = iota
	ReLU
	Tanh
	SigmoidAct
)

func (a Activation) apply(t *Tape, x *Node) *Node {
	switch a {
	case Linear:
		return x
	case ReLU:
		return t.relu(x)
	case Tanh:
		return t.Tanh(x)
	case SigmoidAct:
		return t.sigmoid(x)
	default:
		panic(fmt.Sprintf("nn: unknown activation %d", a))
	}
}

// InPlace applies the activation to every element of v, tape-free.
func (a Activation) InPlace(v []float64) {
	switch a {
	case Linear:
	case ReLU:
		mat.ReLUInto(v, v)
	case Tanh:
		mat.TanhInto(v, v)
	case SigmoidAct:
		mat.SigmoidInto(v, v)
	default:
		panic(fmt.Sprintf("nn: unknown activation %d", a))
	}
}

// DenseInto is the tape-free dense layer: for each of the rows inputs in x
// (row-major, w.Rows wide) it writes act(b + x_r·W) into dst (row-major,
// w.Cols wide), reading w and b in place. b may be nil for a bias-free
// projection. The sum starts from the bias and takes k ascending;
// Dense.Forward adds the bias last, so the two agree to rounding only.
func DenseInto(dst, x []float64, rows int, w, b *mat.Matrix, act Activation) {
	in, out := w.Rows, w.Cols
	for r := 0; r < rows; r++ {
		o := dst[r*out : (r+1)*out]
		if b != nil {
			copy(o, b.Data)
		} else {
			clear(o)
		}
		mat.AddVecMat(o, x[r*in:(r+1)*in], w.Data)
	}
	act.InPlace(dst[:rows*out])
}

// Dense is a fully connected layer y = act(x·W + b) applied row-wise, so a
// batch of L inputs is an L×in matrix producing L×out.
type Dense struct {
	W, B *Param
	Act  Activation
}

// NewDense constructs a Dense layer with Xavier-initialized weights,
// registering its parameters under the given name prefix.
func NewDense(ps *ParamSet, prefix string, in, out int, act Activation, rng *rand.Rand) *Dense {
	var w *mat.Matrix
	if act == ReLU {
		w = mat.HeNormal(in, out, rng)
	} else {
		w = mat.XavierUniform(in, out, rng)
	}
	return &Dense{
		W:   ps.New(prefix+".W", w),
		B:   ps.New(prefix+".b", mat.New(1, out)),
		Act: act,
	}
}

// Forward applies the layer to x (R×in) and returns R×out.
func (d *Dense) Forward(t *Tape, x *Node) *Node {
	y := t.addRowBroadcast(t.MatMul(x, t.Use(d.W)), t.Use(d.B))
	return d.Act.apply(t, y)
}

// Infer applies the layer to rows inputs without a tape; see DenseInto.
func (d *Dense) Infer(dst, x []float64, rows int) {
	DenseInto(dst, x, rows, d.W.Value, d.B.Value, d.Act)
}

// MLP is a stack of Dense layers. Hidden layers use the configured hidden
// activation; the final layer uses the output activation.
type MLP struct {
	Layers []*Dense
}

// NewMLP builds an MLP with the given layer sizes, e.g. sizes = [in, h1,
// out] yields two Dense layers. hiddenAct applies to all but the last layer,
// outAct to the last.
func NewMLP(ps *ParamSet, prefix string, sizes []int, hiddenAct, outAct Activation, rng *rand.Rand) *MLP {
	if len(sizes) < 2 {
		panic("nn: NewMLP needs at least [in, out] sizes")
	}
	m := &MLP{}
	for i := 0; i+1 < len(sizes); i++ {
		act := hiddenAct
		if i+2 == len(sizes) {
			act = outAct
		}
		m.Layers = append(m.Layers, NewDense(ps, fmt.Sprintf("%s.l%d", prefix, i), sizes[i], sizes[i+1], act, rng))
	}
	return m
}

// Forward applies all layers in order.
func (m *MLP) Forward(t *Tape, x *Node) *Node {
	for _, l := range m.Layers {
		x = l.Forward(t, x)
	}
	return x
}

// LayerNorm holds the gain/bias parameters for Tape.LayerNormRows.
type LayerNorm struct {
	Gain, Bias *Param
}

// NewLayerNorm creates a layer norm over dim-wide rows (gain=1, bias=0).
func NewLayerNorm(ps *ParamSet, prefix string, dim int) *LayerNorm {
	g := mat.New(1, dim)
	g.Fill(1)
	return &LayerNorm{
		Gain: ps.New(prefix+".g", g),
		Bias: ps.New(prefix+".b", mat.New(1, dim)),
	}
}

// Forward normalizes each row of x.
func (ln *LayerNorm) Forward(t *Tape, x *Node) *Node {
	return t.layerNormRows(x, t.Use(ln.Gain), t.Use(ln.Bias))
}
