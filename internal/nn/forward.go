package nn

import "geomancy/internal/mat"

// Scratch holds what ForwardBatch keeps between calls so that a caller
// scoring many batches (each of the engine's scoring workers scores one run
// of candidate rows after another, of a different height each time)
// allocates nothing in the steady state: the output vector, grown by
// capacity, and one block of hidden activations. Nothing in it is sized by
// the batch except the output. The zero value is ready to use; a Scratch
// must not be shared between concurrent ForwardBatch calls.
type Scratch struct {
	// Parallelism is ignored: ForwardBatch runs every block on the calling
	// goroutine, and a caller that wants several goroutines gives each its
	// own Scratch and its own rows. The field stays only because the
	// benchmark's forward-pass probe still sets it, like
	// FitConfig.Parallelism.
	Parallelism int

	out *mat.Matrix
	// acts[i] is dense layer i's output for the block in flight, at most
	// BlockRows rows.
	acts []*mat.Matrix
}

// rowsOf returns rows [lo, hi) of m as a view on its storage.
func rowsOf(m *mat.Matrix, lo, hi int) mat.Matrix {
	return mat.Matrix{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}

// ForwardBatch is the batched forward pass. The dense stack runs in blocks
// of BlockRows input rows, each block through every layer before the next
// is started, so the activations in flight stay cache-sized and only the
// B×OutSize result is ever batch-sized. Each output row's arithmetic does
// not depend on the rows around it, so outputs are bit-for-bit what B
// separate PredictOne calls return, for any batch size. The result belongs
// to the scratch and is overwritten by the next call on it; a nil scratch
// means one of the call's own. Recurrent heads run through the regular
// (allocating) sequence path; only the dense stack uses the scratch.
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
	if len(s.acts) != len(n.flat)-1 {
		s.acts = make([]*mat.Matrix, len(n.flat)-1) // a new scratch, or one meeting another architecture
	}
	for lo := 0; lo < in.Rows; lo += BlockRows {
		hi := min(lo+BlockRows, in.Rows)
		h := rowsOf(in, lo, hi)
		for i, d := range n.flat {
			var dst mat.Matrix
			if i < len(s.acts) {
				// Sized for the tallest block met so far, with no headroom:
				// growth stops at the block height anyway.
				if b := s.acts[i]; b == nil || b.Cols != d.Out || cap(b.Data) < h.Rows*d.Out {
					s.acts[i] = mat.New(h.Rows, d.Out)
				}
				s.acts[i].Resize(h.Rows)
				dst = *s.acts[i]
			} else {
				dst = rowsOf(s.out, lo, hi) // the last layer writes the result itself
			}
			d.forwardInto(&dst, &h)
			h = dst
		}
	}
	return s.out
}
