package features

import "fmt"

// MovingAverage returns the trailing moving average of xs with the given
// window: out[i] = mean(xs[max(0,i-window+1) .. i]). This is the smoothing
// the paper applies to ReplayDB batches to remove small variations while
// keeping short-term fluctuations that signal rapid performance drops
// (§V-E). window must be positive.
func MovingAverage(xs []float64, window int) []float64 {
	if window <= 0 {
		panic(fmt.Sprintf("features: MovingAverage window %d must be positive", window))
	}
	out := make([]float64, len(xs))
	var sum float64
	for i, v := range xs {
		sum += v
		n := window
		if i+1 < window {
			n = i + 1
		} else if i >= window {
			sum -= xs[i-window]
		}
		out[i] = sum / float64(n)
	}
	return out
}

// CumulativeAverage returns the running mean of xs: out[i] = mean(xs[0..i]).
// The paper rejects it for training because it washes out the short-term
// fluctuations that indicate rapid performance decreases; it is retained
// for the smoothing ablation benchmark.
func CumulativeAverage(xs []float64) []float64 {
	out := make([]float64, len(xs))
	var sum float64
	for i, v := range xs {
		sum += v
		out[i] = sum / float64(i+1)
	}
	return out
}
