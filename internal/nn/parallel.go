package nn

import (
	"sync"
	"sync/atomic"

	"geomancy/internal/mat"
)

// Scratch holds what ForwardBatch keeps between calls so that a caller
// scoring many batches (the engine scores one candidate batch per
// decision, of a different height each time) allocates nothing in the
// steady state: the output vector, grown by capacity, and one block of
// hidden activations per worker. Nothing in it is sized by the batch
// except the output. The zero value is ready to use; a Scratch must not be
// copied after first use or shared between concurrent ForwardBatch calls.
type Scratch struct {
	// Parallelism is how many goroutines share the blocks of one forward
	// pass when > 1. The result is bit-identical for any setting.
	Parallelism int

	out   *mat.Matrix
	lanes []*scoreLane

	// The forward pass in flight, read by every lane.
	net  *Network
	in   *mat.Matrix
	next atomic.Int64 // next unclaimed block
	wg   sync.WaitGroup
}

// scoreLane is one worker's hidden activations for the block it is on:
// acts[i] is dense layer i's output, at most predictChunkRows rows.
type scoreLane struct {
	acts []*mat.Matrix
	work func() // drains the scratch's block queue; built once so spawning it allocates nothing
}

// rowsOf returns rows [lo, hi) of m as a view on its storage.
func rowsOf(m *mat.Matrix, lo, hi int) mat.Matrix {
	return mat.Matrix{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}

// ForwardBatch is the batched forward pass. The dense stack runs in blocks
// of predictChunkRows input rows, each block through every layer before
// the next is started, so the activations in flight stay cache-sized and
// only the B×OutSize result is ever batch-sized; with Scratch.Parallelism
// > 1 the blocks of one call are shared out over that many goroutines.
// Each output row's arithmetic does not depend on the rows around it, so
// outputs are bit-for-bit what B separate PredictOne calls return, for any
// batch size and any Parallelism. The result belongs to the scratch and is
// overwritten by the next call on it; a nil scratch means one of the
// call's own. Recurrent heads run through the regular (allocating)
// sequence path; only the dense stack uses the scratch.
func (n *Network) ForwardBatch(flat *mat.Matrix, seq []*mat.Matrix, s *Scratch) *mat.Matrix {
	if s == nil {
		s = &Scratch{}
	}
	in := flat
	if n.rec != nil {
		if len(seq) == 0 {
			panic("nn: recurrent network requires a sequence input")
		}
		in = n.rec.forwardSeq(seq)
	} else if flat == nil {
		panic("nn: dense network requires a flat input")
	}
	if len(n.flat) == 0 {
		return in
	}
	s.out = mat.Grow(s.out, in.Rows, n.OutSize())
	blocks := (in.Rows + predictChunkRows - 1) / predictChunkRows
	workers := s.Parallelism
	if workers > blocks {
		workers = blocks
	}
	if workers < 1 {
		workers = 1
	}
	for len(s.lanes) < workers {
		s.addLane()
	}
	s.net, s.in = n, in
	s.next.Store(0)
	s.wg.Add(workers - 1)
	for _, l := range s.lanes[1:workers] {
		go l.work()
	}
	s.drain(s.lanes[0])
	s.wg.Wait()
	s.net, s.in = nil, nil
	return s.out
}

// addLane gives the scratch one more worker. Its buffers come with the
// first block it takes.
func (s *Scratch) addLane() {
	l := &scoreLane{}
	l.work = func() {
		defer s.wg.Done()
		s.drain(l)
	}
	s.lanes = append(s.lanes, l)
}

// drain runs unclaimed blocks of the forward pass in flight on l until
// none are left. Which lane takes which block does not matter: blocks
// write disjoint rows of the output.
func (s *Scratch) drain(l *scoreLane) {
	n, in := s.net, s.in
	if len(l.acts) != len(n.flat)-1 {
		l.acts = make([]*mat.Matrix, len(n.flat)-1) // a new lane, or a scratch meeting another architecture
	}
	for {
		lo := (int(s.next.Add(1)) - 1) * predictChunkRows
		if lo >= in.Rows {
			return
		}
		hi := lo + predictChunkRows
		if hi > in.Rows {
			hi = in.Rows
		}
		h := rowsOf(in, lo, hi)
		for i, d := range n.flat {
			var dst mat.Matrix
			if i < len(l.acts) {
				// Sized for the tallest block met so far, with no headroom:
				// growth stops at the block height anyway.
				if b := l.acts[i]; b == nil || b.Cols != d.Out || cap(b.Data) < h.Rows*d.Out {
					l.acts[i] = mat.New(h.Rows, d.Out)
				}
				l.acts[i].Resize(h.Rows)
				dst = *l.acts[i]
			} else {
				dst = rowsOf(s.out, lo, hi) // the last layer writes the result itself
			}
			d.forwardInto(&dst, &h)
			h = dst
		}
	}
}
