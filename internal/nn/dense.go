package nn

import (
	"math/rand"
	"strconv"

	"geomancy/internal/mat"
)

// layer is the behaviour shared by every layer kind: exposing parameters
// and their gradient accumulators to the optimizer.
type layer interface {
	// name returns the Table I-style description, e.g. "96 (Dense) ReLU".
	name() string
	// outSize is the width of the layer output.
	outSize() int
	params() []*mat.Matrix
	grads() []*mat.Matrix
}

// seqLayer consumes a sequence of T timestep matrices (each B×F) and emits
// the final hidden state as a B×H matrix. Recurrent layers appear only
// first in Table I networks, so backwardSeq does not return input grads.
type seqLayer interface {
	layer
	forwardSeq(steps []*mat.Matrix) *mat.Matrix
	backwardSeq(dOut *mat.Matrix)
}

// Dense is a fully connected layer computing act(X·W + b).
type Dense struct {
	In, Out int //geomancy:ephemeral In is re-derived from the previous layer's width when rebuilding from LayerSpecs
	Act     Activation

	W, B   *mat.Matrix // weights In×Out, bias 1×Out
	dW, dB *mat.Matrix //geomancy:ephemeral gradient scratch, recomputed by every backward pass
}

// NewDense returns a dense layer with Xavier-initialized weights.
func NewDense(in, out int, act Activation, rng *rand.Rand) *Dense {
	d := &Dense{
		In: in, Out: out, Act: act,
		W:  mat.New(in, out),
		B:  mat.New(1, out),
		dW: mat.New(in, out),
		dB: mat.New(1, out),
	}
	d.W.XavierInit(rng, in, out)
	return d
}

func (d *Dense) name() string {
	return sprintfLayer(d.Out, "Dense", d.Act)
}

func (d *Dense) outSize() int          { return d.Out }
func (d *Dense) params() []*mat.Matrix { return []*mat.Matrix{d.W, d.B} }
func (d *Dense) grads() []*mat.Matrix  { return []*mat.Matrix{d.dW, d.dB} }

// forwardInto computes act(x·W + b) into dst: the one forward body, for
// inference and for the forward half of a training step alike (the layer
// keeps no cache; whoever runs backwardInto hands the input and output
// back). A row's result does not depend on the rows around it, so callers
// are free to cut a batch into blocks and run them side by side.
func (d *Dense) forwardInto(dst, x *mat.Matrix) {
	// The bias, and a ReLU's select, run inside the product on each element
	// before it is stored: v + b[j], then the strict v < 0 of
	// Activation.Apply, so results are bit-identical to the per-sample
	// forward path. Any other non-linear activation is one pass after it.
	mat.MulBiasTo(dst, x, d.W, d.B.Data, d.Act == ReLU)
	if d.Act != ReLU && d.Act != Linear {
		dst.ApplyInPlace(d.Act.Apply)
	}
}

// backwardInto is the one backward body. Given the layer's input and
// output of the forward pass and dLoss/dOutput, it accumulates the
// parameter gradients into dW and dB — which the caller has zeroed, so
// that every element's sum starts from +0 exactly as a fresh product
// matrix or SumRows would (see mat.AddMulTransATo) — and, unless dX is
// nil, writes dLoss/dInput = dZ·Wᵀ into it as the forward product against
// wT, the caller's packed transpose of W: element for element the sums of
// mat.MulTransBTo(dX, dZ, W), on the kernel that reads its right operand
// along rows. dLoss/dZ is formed in dOut itself, each element gated in
// place by the activation's derivative (a Linear layer's dZ is dOut
// unchanged), so dOut is spent when this returns.
func (d *Dense) backwardInto(dW, dB, dX, in, out, dOut, wT *mat.Matrix) {
	switch d.Act {
	case Linear:
	case ReLU:
		mat.ReLUGradTo(dOut, dOut, out)
	default:
		for i, y := range out.Data {
			dOut.Data[i] *= d.Act.DerivFromOutput(y)
		}
	}
	mat.AddMulTransATo(dW, in, dOut)
	mat.AddSumRowsTo(dB, dOut)
	if dX != nil {
		mat.MulTo(dX, dOut, wT)
	}
}

func sprintfLayer(units int, kind string, act Activation) string {
	return strconv.Itoa(units) + " (" + kind + ") " + act.String()
}
