package nn

import "geomancy/internal/mat"

// Scratch holds preallocated activation buffers for ForwardBatch so a
// caller scoring many batches of the same shape (the engine scores one
// candidate batch per decision) allocates per-layer outputs once instead
// of once per layer per call. The zero value is ready to use; a Scratch
// must not be shared between concurrent ForwardBatch calls.
type Scratch struct {
	// Parallelism row-shards the dense-layer GEMMs across this many
	// goroutines when > 1. The result stays bit-identical to the serial
	// product for any setting.
	Parallelism int

	bufs []*mat.Matrix
}

// buf returns the i-th scratch buffer resized to rows×cols, reusing the
// previous allocation when the shape already matches.
func (s *Scratch) buf(i, rows, cols int) *mat.Matrix {
	for len(s.bufs) <= i {
		s.bufs = append(s.bufs, nil)
	}
	if b := s.bufs[i]; b != nil && b.Rows == rows && b.Cols == cols {
		return b
	}
	s.bufs[i] = mat.New(rows, cols)
	return s.bufs[i]
}

// ForwardBatch is the batched forward pass: one GEMM per dense layer over
// the whole B×Z input matrix, writing activations into scratch buffers
// instead of fresh allocations. Each output row's arithmetic order does
// not depend on the batch size or on Scratch.Parallelism, so outputs are
// bit-for-bit what B separate PredictOne calls return. The result belongs
// to the scratch and is overwritten by the next call on it; a nil scratch
// means one of the call's own. Recurrent heads run through the regular
// (allocating) sequence path; only the dense stack uses the scratch.
func (n *Network) ForwardBatch(flat *mat.Matrix, seq []*mat.Matrix, s *Scratch) *mat.Matrix {
	if s == nil {
		s = &Scratch{}
	}
	var h *mat.Matrix
	if n.rec != nil {
		if len(seq) == 0 {
			panic("nn: recurrent network requires a sequence input")
		}
		h = n.rec.forwardSeq(seq)
	} else {
		if flat == nil {
			panic("nn: dense network requires a flat input")
		}
		h = flat
	}
	for i, d := range n.flat {
		dst := s.buf(i, h.Rows, d.Out)
		d.forwardInto(dst, h, s.Parallelism)
		h = dst
	}
	return h
}
