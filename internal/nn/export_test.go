package nn

import (
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
