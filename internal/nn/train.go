package nn

import (
	"sync"
	"sync/atomic"

	"geomancy/internal/mat"
)

// gradChunkRows is the fixed shard height of parallel gradient
// accumulation. The chunk structure — not the worker count — determines
// the floating-point reduction order, so training with any Parallelism ≥ 2
// produces one canonical result regardless of how many goroutines actually
// ran (a batch of 32 always reduces as four ordered 8-row chunks).
const gradChunkRows = 8

// helperMinWork is the least work in one full minibatch — rows × weights
// each row passes through — for which Fit hands chunks to helper
// goroutines. Below it lane 0 runs the chunks itself, in order: waking a
// thread costs about what an 8-row chunk of a small network does, so a
// helper there buys nothing on a quiet machine (the paper's 96-48-24-1
// model at batch 32 is 0.2 M; the gain is 1.15× at 0.4 M, 1.15–1.35× at
// 0.8 M and 1.5× at 3 M) and makes every step's time depend on how fast
// the OS wakes it and on whether it is descheduled holding the last chunk. Which
// goroutine ran a chunk never shows in the result, so the cut-off is
// invisible in the trained weights. (Those gains were measured on the
// scalar kernels; the vector kernels made a chunk about 2.5× cheaper and a
// wake-up no cheaper, so the cut-off errs low now. Not re-measured.) A
// variable only so that tests can force helpers onto small networks.
var helperMinWork = 1 << 19

// trainer is the working set of one Fit call: every buffer a minibatch
// needs, sized once for the largest batch and re-sliced for a short last
// batch or chunk. It lives exactly as long as the Fit that built it —
// nothing here is parked on the Network or its layers, so a trained model
// retains no batch-sized memory between training cycles.
//
// A minibatch is cut into chunks (the whole batch when training serially,
// gradChunkRows rows otherwise). Each chunk's forward and backward pass
// runs on a lane — the activations and input gradients, which are dead
// once the chunk is done, so there is one set per worker — and leaves its
// gradient in the chunk's own buffers: the reduction adds them in chunk
// order whichever lane computed them and however many chunks one lane
// took, so gradients are per chunk, not per worker.
type trainer struct {
	net       *Network
	ds        *Dataset
	chunkRows int
	lanes     []*lane
	chunks    []gradChunk
	sses      []float64 // per chunk: its sum of squared errors
	// wT[i] is dense layer i's Wᵀ, packed once per minibatch — the weights
	// only change between minibatches — and read by every lane's backward
	// pass; nil where no input gradient is computed (see lane.dX).
	wT []*mat.Matrix

	// The minibatch in flight, read by every lane.
	batch   []int
	elems   int
	nChunks int
	next    atomic.Int64 // next unclaimed chunk
	wg      sync.WaitGroup
}

// gradChunk is where one chunk's gradient accumulates: the matrices in
// Network.GradsRef order, and the recurrent head that owns the leading
// ones (its backward pass writes its own accumulators). Chunk 0 is the
// network itself, so the reduced gradient ends up where the optimizer
// reads it.
type gradChunk struct {
	rec   seqLayer
	grads []*mat.Matrix
}

// lane holds one worker's per-chunk buffers. dZ[i] is nil for a Linear
// layer (its dZ is the incoming gradient), dX[0] is nil for a dense
// network (nothing consumes the gradient with respect to the features).
type lane struct {
	x, dOut      *mat.Matrix // gathered inputs (dense networks), loss gradient
	y            []float64   // gathered targets
	acts, dZ, dX []*mat.Matrix
	work         func() // drains the trainer's chunk queue; built once so spawning it allocates nothing
}

// newTrainer sizes the buffers for minibatches of up to batchRows rows.
// parallelism ≤ 1 trains each batch as one chunk on one lane — the serial
// path; anything larger cuts gradChunkRows-row chunks, over that many
// lanes when a minibatch is at least helperMinWork and over one otherwise.
func newTrainer(n *Network, ds *Dataset, batchRows, parallelism int) *trainer {
	t := &trainer{net: n, ds: ds, chunkRows: batchRows}
	nLanes := 1
	if parallelism > 1 {
		t.chunkRows = gradChunkRows
		steps := 1
		if n.rec != nil {
			steps = n.window()
		}
		if batchRows*n.ParamCount()*steps >= helperMinWork {
			nLanes = parallelism
		}
	}
	if t.chunkRows > batchRows {
		t.chunkRows = batchRows // the whole dataset is smaller than one chunk
	}
	nChunks := (batchRows + t.chunkRows - 1) / t.chunkRows
	if nLanes > nChunks {
		nLanes = nChunks
	}
	t.sses = make([]float64, nChunks)
	t.chunks = make([]gradChunk, nChunks)
	t.chunks[0] = gradChunk{rec: n.rec, grads: n.GradsRef()}
	for c := 1; c < nChunks; c++ {
		ch := &t.chunks[c]
		if n.rec != nil {
			ch.rec = n.rec.cloneShared()
			ch.grads = ch.rec.grads()
		}
		for _, d := range n.flat {
			ch.grads = append(ch.grads, mat.New(d.In, d.Out), mat.New(1, d.Out))
		}
	}
	for li, d := range n.flat {
		var wT *mat.Matrix
		if li > 0 || n.rec != nil {
			wT = mat.New(d.Out, d.In)
		}
		t.wT = append(t.wT, wT)
	}
	rows := t.chunkRows
	t.lanes = make([]*lane, nLanes)
	for i := range t.lanes {
		l := &lane{y: make([]float64, rows), dOut: mat.New(rows, n.OutSize())}
		if n.rec == nil {
			l.x = mat.New(rows, n.InSize)
		}
		for li, d := range n.flat {
			l.acts = append(l.acts, mat.New(rows, d.Out))
			var dZ, dX *mat.Matrix
			if d.Act != Linear {
				dZ = mat.New(rows, d.Out)
			}
			if t.wT[li] != nil {
				dX = mat.New(rows, d.In)
			}
			l.dZ, l.dX = append(l.dZ, dZ), append(l.dX, dX)
		}
		l.work = func() {
			defer t.wg.Done()
			t.drain(l)
		}
		t.lanes[i] = l
	}
	return t
}

// minibatch leaves the MSE gradient of the batch rows in the network's
// accumulators and returns the batch MSE. The chunks' gradients and
// squared errors reduce in chunk order.
func (t *trainer) minibatch(batch []int) float64 {
	t.batch, t.elems = batch, len(batch)*t.net.OutSize()
	t.nChunks = (len(batch) + t.chunkRows - 1) / t.chunkRows
	t.packWeights()
	t.next.Store(0)
	helpers := len(t.lanes) - 1
	if helpers > t.nChunks-1 {
		helpers = t.nChunks - 1
	}
	t.wg.Add(helpers)
	for _, l := range t.lanes[1 : 1+helpers] {
		go l.work()
	}
	t.drain(t.lanes[0])
	t.wg.Wait()

	// Chunk 0 accumulated straight into the network's gradients; the
	// others add to it in order. That equals zeroing and adding all of
	// them: 0 + g is g for every g a chunk can produce, since each of its
	// elements is itself a sum that started at +0 and so is never −0.
	var sse float64
	for c := 0; c < t.nChunks; c++ {
		sse += t.sses[c]
		if c == 0 {
			continue
		}
		for i, g := range t.chunks[c].grads {
			mat.AddInPlace(t.chunks[0].grads[i], g)
		}
	}
	return sse / float64(t.elems)
}

// packWeights brings wT up to date with the layers' weights.
func (t *trainer) packWeights() {
	for i, wT := range t.wT {
		if wT != nil {
			mat.TransposeTo(wT, t.net.flat[i].W)
		}
	}
}

// drain runs unclaimed chunks of the minibatch in flight on l until none
// are left. Which lane takes which chunk does not matter: a chunk's result
// depends only on its rows.
func (t *trainer) drain(l *lane) {
	for {
		c := int(t.next.Add(1)) - 1
		if c >= t.nChunks {
			return
		}
		lo := c * t.chunkRows
		hi := lo + t.chunkRows
		if hi > len(t.batch) {
			hi = len(t.batch)
		}
		rows := t.batch[lo:hi]
		ch := &t.chunks[c]
		for i, r := range rows {
			l.y[i] = t.ds.Y[r]
		}
		var seq []*mat.Matrix
		if ch.rec != nil {
			seq = t.net.assembleSeq(t.ds, rows)
		} else {
			l.x.Resize(len(rows))
			for i, r := range rows {
				copy(l.x.Row(i), t.ds.X.Row(r))
			}
		}
		t.sses[c] = l.step(t, ch, l.x, seq, l.y[:len(rows)])
	}
}

// step is one forward and backward pass over a chunk of t's minibatch: x
// (dense networks) or seq (recurrent ones) in, the gradient of sse/t.elems
// with respect to every parameter left in ch.grads, the chunk's sum of
// squared errors returned. It is the only training step there is — a
// serial Fit runs it once per minibatch, a parallel one once per chunk —
// and the dense part of it allocates nothing.
func (l *lane) step(t *trainer, ch *gradChunk, x *mat.Matrix, seq []*mat.Matrix, y []float64) float64 {
	n := t.net
	in := x
	if ch.rec != nil {
		in = ch.rec.forwardSeq(seq)
	}
	h := in
	for i, d := range n.flat {
		l.acts[i].Resize(h.Rows)
		d.forwardInto(l.acts[i], h)
		h = l.acts[i]
	}
	l.dOut.Resize(h.Rows)
	sse := sseLoss(l.dOut.Data, h.Data, y, t.elems)

	for _, g := range ch.grads {
		g.Zero()
	}
	dense := ch.grads[len(ch.grads)-2*len(n.flat):]
	g := l.dOut
	for i := len(n.flat) - 1; i >= 0; i-- {
		layerIn := in
		if i > 0 {
			layerIn = l.acts[i-1]
		}
		dZ, dX := l.dZ[i], l.dX[i]
		if dZ != nil {
			dZ.Resize(g.Rows)
		}
		if dX != nil {
			dX.Resize(g.Rows)
		}
		n.flat[i].backwardInto(dense[2*i], dense[2*i+1], dX, dZ, layerIn, l.acts[i], g, t.wT[i])
		g = dX
	}
	if ch.rec != nil {
		ch.rec.backwardSeq(g)
	}
	return sse
}

// sseLoss returns the sum of squared errors of pred against target and,
// unless grad is nil, writes the gradient of sse/batchElems with respect
// to pred into it. With batchElems the element count of the whole
// minibatch, the chunks' gradients add up to exactly the full-batch MSE
// gradient.
func sseLoss(grad, pred, target []float64, batchElems int) float64 {
	if len(pred) != len(target) {
		panic("nn: loss shape mismatch")
	}
	var sse float64
	for i, p := range pred {
		d := p - target[i]
		sse += d * d
		if grad != nil {
			grad[i] = 2 * d / float64(batchElems)
		}
	}
	return sse
}
