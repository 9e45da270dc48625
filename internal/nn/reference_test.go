package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"geomancy/internal/mat"
)

// The reference trainer is the allocating per-minibatch trainer Fit used
// before the per-Fit scratch, kept here as the oracle the scratch trainer
// must match bit for bit: a fresh matrix for every activation, dZ and
// product, `dW += MulTransA(in, dZ)` as a separate pass, the dense input
// gradient computed even where nothing reads it.

// refStep runs forward and backward over the anchor rows and leaves the
// gradient of their MSE in the network's own accumulators.
func refStep(n *Network, ds *Dataset, rows []int) (sse float64) {
	y := mat.New(len(rows), 1)
	for i, r := range rows {
		y.Set(i, 0, ds.Y[r])
	}
	var h *mat.Matrix
	if n.rec != nil {
		h = n.rec.forwardSeq(n.assembleSeq(ds, rows))
	} else {
		h = mat.New(len(rows), n.InSize)
		for i, r := range rows {
			h.SetRow(i, ds.X.Row(r))
		}
	}
	ins := make([]*mat.Matrix, len(n.flat))
	outs := make([]*mat.Matrix, len(n.flat))
	for i, d := range n.flat {
		out := mat.Mul(h, d.W)
		out.AddRowVector(d.B)
		if d.Act != Linear {
			out.ApplyInPlace(d.Act.Apply)
		}
		ins[i], outs[i] = h, out
		h = out
	}

	g := mat.New(h.Rows, h.Cols)
	for i := range h.Data {
		diff := h.Data[i] - y.Data[i]
		sse += diff * diff
		g.Data[i] = 2 * diff / float64(len(h.Data))
	}

	for _, acc := range n.GradsRef() {
		acc.Zero()
	}
	for i := len(n.flat) - 1; i >= 0; i-- {
		d := n.flat[i]
		dZ := g
		if d.Act != Linear {
			dZ = mat.New(g.Rows, g.Cols)
			for j := range g.Data {
				dZ.Data[j] = g.Data[j] * d.Act.DerivFromOutput(outs[i].Data[j])
			}
		}
		mat.AddInPlace(d.dW, mat.MulTransA(ins[i], dZ))
		mat.AddInPlace(d.dB, dZ.SumRows())
		g = mat.MulTransB(dZ, d.W)
	}
	if n.rec != nil {
		n.rec.backwardSeq(g)
	}
	return sse
}

// refFit is the old Fit loop: one whole-batch step per minibatch. It
// never looks at cfg.Parallelism.
func refFit(n *Network, ds *Dataset, cfg FitConfig) float64 {
	idx := n.sampleIndexes(ds)
	params, grads := n.Params(), n.GradsRef()
	var lastLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if cfg.Rng != nil {
			cfg.Rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		}
		var epochLoss float64
		var batches int
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			batch := idx[start:end]
			epochLoss += refStep(n, ds, batch) / float64(len(batch)*n.OutSize())
			batches++
			cfg.Optimizer.Step(params, grads)
		}
		lastLoss = epochLoss / float64(batches)
	}
	return lastLoss
}

// randomNetwork builds a dense stack of random widths and activations,
// optionally behind a recurrent head.
func randomNetwork(rng *rand.Rand, z int, recurrent bool) *Network {
	net := NewNetwork(z)
	net.Window = 3
	acts := []Activation{ReLU, ReLU, Linear, Tanh, Sigmoid}
	if recurrent {
		switch rng.Intn(3) {
		case 0:
			net.AddSimpleRNN(1+rng.Intn(7), ReLU, rng)
		case 1:
			net.AddGRU(1+rng.Intn(7), Tanh, rng)
		default:
			net.AddLSTM(1+rng.Intn(7), ReLU, rng)
		}
	}
	for l := rng.Intn(4); l > 0; l-- {
		net.AddDense(1+rng.Intn(40), acts[rng.Intn(len(acts))], rng)
	}
	return net.AddDense(1, Linear, rng)
}

// The scratch trainer against the reference, on shapes chosen for their
// edges: a last batch of one row, a short last batch (2 457 = 76·32 + 25
// is what the warehouse workload trains on), a small batch, a dataset
// smaller than the batch — each at two values of the inert
// FitConfig.Parallelism.
func TestFitMatchesReferenceTrainer(t *testing.T) {
	shapes := []struct{ samples, batch int }{
		{65, 32}, {57, 32}, {2457, 32}, {40, 5}, {7, 32}, {33, 16}, {100, 100},
	}
	for si, sh := range shapes {
		for _, recurrent := range []bool{false, true} {
			if recurrent && sh.samples > 200 {
				continue // the recurrent layers are shared code; small shapes cover the plumbing
			}
			for _, adam := range []bool{false, true} {
				for _, par := range []int{1, 3} {
					name := fmt.Sprintf("%dx%d/rec=%v/adam=%v/par%d", sh.samples, sh.batch, recurrent, adam, par)
					t.Run(name, func(t *testing.T) {
						seed := int64(100 + si)
						z := 1 + rand.New(rand.NewSource(seed)).Intn(6)
						ds := testDataset(rand.New(rand.NewSource(seed+1)), sh.samples, z)
						// moments are Adam's m then v buffers; nil under SGD.
						fit := func(ref bool) (loss float64, params []*mat.Matrix, moments [][]float64) {
							net := randomNetwork(rand.New(rand.NewSource(seed+2)), z, recurrent)
							var opt Optimizer = &SGD{LR: 0.05}
							a := NewAdam(0.005)
							if adam {
								opt = a
							}
							cfg := FitConfig{
								Epochs: 2, BatchSize: sh.batch, Optimizer: opt,
								Rng: rand.New(rand.NewSource(seed + 3)), Parallelism: par,
							}
							if ref {
								loss = refFit(net, ds, cfg)
							} else {
								var err error
								if loss, err = net.Fit(ds, cfg); err != nil {
									t.Fatal(err)
								}
							}
							if adam {
								moments = append(append(moments, a.m...), a.v...)
							}
							return loss, net.Params(), moments
						}
						// The reference runs once, on the portable kernels (the
						// first onEachKernel visits); Fit on each implementation.
						var wantLoss float64
						var wantParams []*mat.Matrix
						var wantMoments [][]float64
						onEachKernel(t, func(kernel string) {
							if wantParams == nil {
								wantLoss, wantParams, wantMoments = fit(true)
							}
							gotLoss, gotParams, gotMoments := fit(false)
							if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
								t.Errorf("%s kernels: loss %v, reference %v", kernel, gotLoss, wantLoss)
							}
							if got, want := digestMatrices(gotParams), digestMatrices(wantParams); got != want {
								t.Errorf("%s kernels: params digest %s, reference %s", kernel, got, want)
							}
							if got, want := digestFloats(gotMoments...), digestFloats(wantMoments...); got != want {
								t.Errorf("%s kernels: optimizer moments digest %s, reference %s", kernel, got, want)
							}
						})
					})
				}
			}
		}
	}
}
