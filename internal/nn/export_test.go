package nn

import (
	"bytes"
	"fmt"

	"geomancy/internal/mat"
)

// MSELoss returns the mean-squared-error loss between pred and target
// (both B×1) and the gradient dLoss/dPred, through the trainer's sseLoss.
func MSELoss(pred, target *mat.Matrix) (float64, *mat.Matrix) {
	if pred.Rows != target.Rows || pred.Cols != target.Cols {
		panic(fmt.Sprintf("nn: MSELoss shape mismatch %dx%d vs %dx%d",
			pred.Rows, pred.Cols, target.Rows, target.Cols))
	}
	grad := mat.New(pred.Rows, pred.Cols)
	sse := sseLoss(grad.Data, pred.Data, target.Data)
	return sse / float64(len(pred.Data)), grad
}

// sampleIndexes and assembleSeq are the reference trainer's int-indexed
// forms of Fit's anchor permutation and window gather.
func (n *Network) sampleIndexes(ds *Dataset) []int {
	var idx []int
	for i := n.firstAnchor(); i < ds.Len(); i++ {
		idx = append(idx, i)
	}
	return idx
}

func (n *Network) assembleSeq(ds *Dataset, rows []int) []*mat.Matrix {
	r32 := make([]int32, len(rows))
	for i, r := range rows {
		r32[i] = int32(r)
	}
	return n.gatherSeq(ds, r32)
}

// AppendWeights appends the state's weight block to b.
func (s *State) AppendWeights(b []byte) []byte {
	w := bytes.NewBuffer(b)
	if err := s.WriteWeights(w, make([]byte, 0, 512)); err != nil {
		panic(err)
	}
	return w.Bytes()
}
