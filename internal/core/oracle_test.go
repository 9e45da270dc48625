package core

import (
	"geomancy/internal/nn"
	"geomancy/internal/policy"
)

// predictCandidate is the reference oracle for the batched scoring
// pipeline: the per-sample prediction the engine made before batching,
// kept test-only so the score vectors the pipeline writes (proposeScored)
// can be compared against an independent implementation. It returns the adjusted predicted
// throughput (bytes/s) of accessing file f when placed on device. For
// recurrent models the candidate row is appended to the file's recent
// history window.
func (e *Engine) predictCandidate(f policy.FileInfo, device string) float64 {
	recurrent := e.net.IsRecurrent()
	// Candidate feature row: the file's typical access at this location,
	// stamped at the most recent known time.
	ff := e.gatherFileFeatures(f, recurrent)
	devIdx, ok := e.devIndex[device]
	if !ok {
		devIdx = len(e.devices)
	}
	norm := make([]float64, featureCount)
	e.candidateRow(norm, ff, f.ID, devIdx)

	var pred float64
	if recurrent {
		window := make([][]float64, 0, e.net.Window)
		// History rows (normalized), oldest first, padded by repetition.
		hist := make([][]float64, 0, len(ff.hist))
		for _, raw := range ff.hist {
			n := make([]float64, len(raw))
			for c, v := range raw {
				n[c] = e.featScaler.TransformValue(c, v)
			}
			hist = append(hist, n)
		}
		need := e.net.Window - 1
		for len(hist) < need {
			hist = append([][]float64{norm}, hist...)
		}
		window = append(window, hist[len(hist)-need:]...)
		window = append(window, norm)
		pred = e.net.PredictOne(window)
	} else {
		pred = e.net.PredictOne([][]float64{norm})
	}

	raw := DecodeTarget(e.targetScaler.Inverse(clamp01(pred)))
	return nn.AdjustPrediction(raw, e.valMetrics)
}
