package nn

import "geomancy/internal/mat"

// trainer is the working set of one Fit call: every buffer a minibatch
// needs, sized once for the largest batch and re-sliced for a short last
// one. It lives exactly as long as the Fit that built it — nothing here is
// parked on the Network or its layers, so a trained model retains no
// batch-sized memory between training cycles.
//
// A minibatch is one forward and one backward pass over all its rows, on
// the goroutine that called Fit, accumulating straight into the network's
// own gradients. There is no second way to cut a batch up, so there is one
// floating-point reduction order and nothing a caller sets can change a
// trained bit.
type trainer struct {
	net   *Network
	ds    *Dataset
	grads []*mat.Matrix // the network's accumulators, in GradsRef order

	x, dOut *mat.Matrix // gathered inputs (dense networks), loss gradient
	y       []float64   // gathered targets
	// Per dense layer: its activation and dX (nil for the first layer of a
	// dense network: nothing consumes the gradient with respect to the
	// features). There is no dZ: each layer gates its incoming gradient —
	// dOut or the next layer's dX, dead once gated — in place.
	acts, dX []*mat.Matrix
	// wT[i] is dense layer i's Wᵀ, packed once per minibatch — the weights
	// only change between minibatches — and read by the backward pass; nil
	// where dX is.
	wT []*mat.Matrix
}

// newTrainer sizes the buffers for minibatches of up to batchRows rows.
func newTrainer(n *Network, ds *Dataset, batchRows int) *trainer {
	t := &trainer{
		net: n, ds: ds, grads: n.GradsRef(),
		y: make([]float64, batchRows), dOut: mat.New(batchRows, n.OutSize()),
	}
	if n.rec == nil {
		t.x = mat.New(batchRows, n.InSize)
	}
	for li, d := range n.flat {
		t.acts = append(t.acts, mat.New(batchRows, d.Out))
		var dX, wT *mat.Matrix
		if li > 0 || n.rec != nil {
			dX = mat.New(batchRows, d.In)
			wT = mat.New(d.Out, d.In)
		}
		t.dX, t.wT = append(t.dX, dX), append(t.wT, wT)
	}
	return t
}

// minibatch gathers the batch rows and runs the training step over them:
// the MSE gradient of the batch is left in the network's accumulators and
// the batch MSE returned.
func (t *trainer) minibatch(batch []int32) float64 {
	y := t.y[:len(batch)]
	for i, r := range batch {
		y[i] = t.ds.Y[r]
	}
	var seq []*mat.Matrix
	if t.net.rec != nil {
		seq = t.net.gatherSeq(t.ds, batch)
	} else {
		t.x.Resize(len(batch))
		for i, r := range batch {
			copy(t.x.Row(i), t.ds.X.Row(int(r)))
		}
	}
	return t.step(t.x, seq, y) / float64(len(y))
}

// step is the only training step there is: one forward and one backward
// pass over a whole minibatch — x (dense networks) or seq (recurrent ones)
// in, the gradient of the batch MSE with respect to every parameter left
// in the network's accumulators, the sum of squared errors returned. The
// dense part of it allocates nothing; a recurrent head keeps its
// allocating BPTT.
func (t *trainer) step(x *mat.Matrix, seq []*mat.Matrix, y []float64) float64 {
	n := t.net
	for i, wT := range t.wT {
		if wT != nil {
			mat.TransposeTo(wT, n.flat[i].W)
		}
	}
	in := x
	if n.rec != nil {
		in = n.rec.forwardSeq(seq)
	}
	h := in
	for i, d := range n.flat {
		t.acts[i].Resize(h.Rows)
		d.forwardInto(t.acts[i], h)
		h = t.acts[i]
	}
	t.dOut.Resize(h.Rows)
	sse := sseLoss(t.dOut.Data, h.Data, y)

	for _, g := range t.grads {
		g.Zero()
	}
	dense := t.grads[len(t.grads)-2*len(n.flat):]
	g := t.dOut
	for i := len(n.flat) - 1; i >= 0; i-- {
		layerIn := in
		if i > 0 {
			layerIn = t.acts[i-1]
		}
		dX := t.dX[i]
		if dX != nil {
			dX.Resize(g.Rows)
		}
		n.flat[i].backwardInto(dense[2*i], dense[2*i+1], dX, layerIn, t.acts[i], g, t.wT[i])
		g = dX
	}
	if n.rec != nil {
		n.rec.backwardSeq(g)
	}
	return sse
}

// sseLoss returns the sum of squared errors of pred against target and
// writes the MSE gradient — that of sse/len(pred) with respect to pred —
// into grad.
func sseLoss(grad, pred, target []float64) float64 {
	if len(pred) != len(target) {
		panic("nn: loss shape mismatch")
	}
	var sse float64
	elems := float64(len(pred))
	for i, p := range pred {
		d := p - target[i]
		sse += d * d
		grad[i] = 2 * d / elems
	}
	return sse
}
