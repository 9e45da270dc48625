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
