package nn

import (
	"fmt"
	"math"

	"geomancy/internal/mat"
)

// Dataset pairs a time-ordered feature matrix (one access per row, Z
// features per access) with the scalar throughput targets. Rows must be in
// chronological order: recurrent models consume windows of consecutive
// rows.
type Dataset struct {
	X *mat.Matrix
	Y []float64
}

// NewDataset validates and wraps features and targets.
func NewDataset(x *mat.Matrix, y []float64) *Dataset {
	if x.Rows != len(y) {
		panic(fmt.Sprintf("nn: dataset has %d feature rows but %d targets", x.Rows, len(y)))
	}
	return &Dataset{X: x, Y: y}
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return d.X.Rows }

// Slice returns the sub-dataset covering rows [from, to). The returned
// dataset shares storage with the original.
func (d *Dataset) Slice(from, to int) *Dataset {
	if from < 0 || to > d.Len() || from > to {
		panic(fmt.Sprintf("nn: Slice[%d:%d] out of range for %d samples", from, to, d.Len()))
	}
	x := &mat.Matrix{Rows: to - from, Cols: d.X.Cols, Data: d.X.Data[from*d.X.Cols : to*d.X.Cols]}
	return &Dataset{X: x, Y: d.Y[from:to]}
}

// Split divides the dataset chronologically into the paper's 60% train,
// 20% validation, 20% test partitions ("All three of these sets are
// separate sets of data that never appear in another set", §V-G).
func (d *Dataset) Split() (train, val, test *Dataset) {
	n := d.Len()
	trainEnd := n * 60 / 100
	valEnd := n * 80 / 100
	return d.Slice(0, trainEnd), d.Slice(trainEnd, valEnd), d.Slice(valEnd, n)
}

// Metrics summarizes prediction quality the way Tables II and III do.
type Metrics struct {
	// MARE is the mean absolute relative error, in percent.
	MARE float64
	// MAREStd is the standard deviation of the absolute relative error,
	// in percent.
	MAREStd float64
	// SignedRelErr is the mean of the signed relative error, in percent;
	// its sign drives the paper's AdjustedPrediction correction (§V-G).
	SignedRelErr float64
	// Diverged marks a model that failed to capture the target's mean and
	// variation — NaN/Inf output, or near-constant predictions against a
	// varying target (the paper's footnote to Table II).
	Diverged bool
	// N is the number of evaluated samples.
	N int
}

// String renders the metric as Table II does, e.g. "18.88 ± 16.92".
func (m Metrics) String() string {
	if m.Diverged {
		return "Diverged"
	}
	return fmt.Sprintf("%.2f ± %.2f", m.MARE, m.MAREStd)
}

// relErrFloor avoids dividing by near-zero targets when computing relative
// errors; targets are normalized throughputs in (0,1].
const relErrFloor = 1e-6

// Evaluate computes prediction-quality metrics for the network on ds: its
// Predict output against the anchors' own targets, with no per-row slice
// beyond the predictions.
func (n *Network) Evaluate(ds *Dataset) Metrics {
	preds, first := n.Predict(ds)
	if len(preds) == 0 {
		return Metrics{Diverged: true}
	}
	return EvaluatePredictions(preds, ds.Y[first:])
}

// EvaluatePredictions computes the Table II metrics for parallel slices of
// predictions and targets, flooring relative-error denominators at 10% of
// the mean target magnitude. Without the floor a single access that lands
// in a deep contention trough (measured throughput near zero) contributes
// a quasi-infinite relative error and dominates the mean — the floor keeps
// the metric describing model quality rather than the target's tail. It
// allocates nothing: the deviation pass recomputes each relative error
// rather than keeping them.
func EvaluatePredictions(preds, targets []float64) Metrics {
	if len(preds) != len(targets) || len(preds) == 0 {
		return Metrics{Diverged: true}
	}
	var meanAbs float64
	for _, t := range targets {
		meanAbs += math.Abs(t)
	}
	meanAbs /= float64(len(targets))
	floor := 0.1 * meanAbs
	if floor < relErrFloor {
		floor = relErrFloor
	}
	signedErr := func(i int) float64 {
		den := math.Abs(targets[i])
		if den < floor {
			den = floor
		}
		return (targets[i] - preds[i]) / den
	}
	var sum, sumSigned float64
	for i, p := range preds {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return Metrics{Diverged: true, N: len(preds)}
		}
		signed := signedErr(i)
		sumSigned += signed
		sum += math.Abs(signed)
	}
	nf := float64(len(preds))
	mean := sum / nf
	var sq float64
	for i := range preds {
		d := math.Abs(signedErr(i)) - mean
		sq += d * d
	}
	std := math.Sqrt(sq / nf)

	m := Metrics{
		MARE:         mean * 100,
		MAREStd:      std * 100,
		SignedRelErr: sumSigned / nf * 100,
		N:            len(preds),
	}
	// A model that emits (nearly) the same value for every input while the
	// targets vary has failed to capture the signal: the paper reports
	// such models as "Diverged". Numerically exploded weights that still
	// produce finite-but-astronomical outputs count as diverged too.
	if stddev(preds) < 1e-9 && stddev(targets) > 1e-6 {
		m.Diverged = true
	}
	if m.MARE > 1e6 {
		m.Diverged = true
	}
	return m
}

// AdjustPrediction applies the paper's MAE-based correction (§V-G), with
// the sign taken from the mean signed relative error (positive mean ⇒
// under-predicting ⇒ adjust up by MARE×prediction). Over-prediction
// divides by (1+MARE) rather than subtracting: the subtractive form goes
// negative once MARE exceeds 100% — routine for a freshly trained model
// on small windows — and a negative factor inverts the maximize-me
// ranking of candidate scores, steering placement toward the worst
// predicted device. The divisive form agrees to first order, is bounded
// below by zero, and preserves the prediction ordering for any MARE.
func AdjustPrediction(pred float64, m Metrics) float64 {
	mae := m.MARE / 100
	if m.SignedRelErr >= 0 {
		return pred + mae*pred
	}
	return pred / (1 + mae)
}

func stddev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var mean float64
	for _, v := range xs {
		mean += v
	}
	mean /= float64(len(xs))
	var sq float64
	for _, v := range xs {
		d := v - mean
		sq += d * d
	}
	return math.Sqrt(sq / float64(len(xs)))
}
