package nn

import (
	"math"
	"math/rand"
	"testing"

	"geomancy/internal/mat"
)

// lossFor computes the MSE loss of net on a fixed batch without touching
// gradients — the probe used by numerical differentiation.
func lossFor(net *Network, flat *mat.Matrix, seq []*mat.Matrix, y *mat.Matrix) float64 {
	pred := net.Forward(flat, seq)
	loss, _ := MSELoss(pred, y)
	return loss
}

// checkGradients compares every analytic gradient of net on the batch —
// as the training step Fit runs leaves them — against a central-difference
// numerical estimate.
func checkGradients(t *testing.T, net *Network, flat *mat.Matrix, seq []*mat.Matrix, y *mat.Matrix) {
	t.Helper()
	const eps = 1e-5
	const tol = 1e-4

	newTrainer(net, nil, y.Rows).step(flat, seq, y.Data)

	params := net.Params()
	grads := net.GradsRef()
	for pi, p := range params {
		for i := range p.Data {
			orig := p.Data[i]
			p.Data[i] = orig + eps
			lossPlus := lossFor(net, flat, seq, y)
			p.Data[i] = orig - eps
			lossMinus := lossFor(net, flat, seq, y)
			p.Data[i] = orig

			numeric := (lossPlus - lossMinus) / (2 * eps)
			analytic := grads[pi].Data[i]
			scale := math.Max(1, math.Max(math.Abs(numeric), math.Abs(analytic)))
			if math.Abs(numeric-analytic)/scale > tol {
				t.Fatalf("param %d element %d: analytic %g vs numeric %g", pi, i, analytic, numeric)
			}
		}
	}
}

// randomize fills m with uniform values in [-1, 1) drawn from rng.
func randomize(m *mat.Matrix, rng *rand.Rand) {
	for i := range m.Data {
		m.Data[i] = rng.Float64()*2 - 1
	}
}

func denseBatch(rng *rand.Rand, b, z int) (*mat.Matrix, *mat.Matrix) {
	x := mat.New(b, z)
	y := mat.New(b, 1)
	randomize(x, rng)
	randomize(y, rng)
	return x, y
}

func seqBatch(rng *rand.Rand, steps, b, z int) ([]*mat.Matrix, *mat.Matrix) {
	seq := make([]*mat.Matrix, steps)
	for t := range seq {
		seq[t] = mat.New(b, z)
		randomize(seq[t], rng)
	}
	y := mat.New(b, 1)
	randomize(y, rng)
	return seq, y
}

func TestDenseGradients(t *testing.T) {
	for _, act := range []Activation{Linear, Tanh, Sigmoid} {
		t.Run(act.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(10))
			net := NewNetwork(4).AddDense(5, act, rng).AddDense(1, Linear, rng)
			x, y := denseBatch(rng, 3, 4)
			checkGradients(t, net, x, nil, y)
		})
	}
}

// ReLU gradients are only checked at inputs away from the kink; nudge any
// pre-activation magnitudes below a threshold by biasing the weights.
func TestDenseGradientsReLU(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	net := NewNetwork(4).AddDense(6, ReLU, rng).AddDense(1, Linear, rng)
	// Large bias pushes activations away from the ReLU kink so the
	// numerical probe does not cross it.
	net.flat[0].B.Fill(0.7)
	x, y := denseBatch(rng, 3, 4)
	checkGradients(t, net, x, nil, y)
}

func TestDeepDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	net := NewNetwork(3).
		AddDense(7, Tanh, rng).
		AddDense(5, Sigmoid, rng).
		AddDense(4, Tanh, rng).
		AddDense(1, Linear, rng)
	x, y := denseBatch(rng, 4, 3)
	checkGradients(t, net, x, nil, y)
}

func TestSimpleRNNGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	net := NewNetwork(3)
	net.Window = 4
	net.AddSimpleRNN(5, Tanh, rng).AddDense(1, Linear, rng)
	seq, y := seqBatch(rng, 4, 3, 3)
	checkGradients(t, net, nil, seq, y)
}

func TestLSTMGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	net := NewNetwork(3)
	net.Window = 4
	net.AddLSTM(4, Tanh, rng).AddDense(1, Linear, rng)
	seq, y := seqBatch(rng, 4, 2, 3)
	checkGradients(t, net, nil, seq, y)
}

func TestGRUGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	net := NewNetwork(3)
	net.Window = 4
	net.AddGRU(4, Tanh, rng).AddDense(1, Linear, rng)
	seq, y := seqBatch(rng, 4, 2, 3)
	checkGradients(t, net, nil, seq, y)
}

func TestRecurrentWithDeepHeadGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	net := NewNetwork(3)
	net.Window = 3
	net.AddGRU(4, Tanh, rng).AddDense(6, Sigmoid, rng).AddDense(1, Linear, rng)
	seq, y := seqBatch(rng, 3, 2, 3)
	checkGradients(t, net, nil, seq, y)
}

func TestLSTMSingleStepGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	net := NewNetwork(2)
	net.Window = 1
	net.AddLSTM(3, Sigmoid, rng).AddDense(1, Linear, rng)
	seq, y := seqBatch(rng, 1, 2, 2)
	checkGradients(t, net, nil, seq, y)
}

func TestLongWindowGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	net := NewNetwork(2)
	net.Window = 9
	net.AddSimpleRNN(3, Tanh, rng).AddDense(1, Linear, rng)
	seq, y := seqBatch(rng, 9, 2, 2)
	checkGradients(t, net, nil, seq, y)
}
