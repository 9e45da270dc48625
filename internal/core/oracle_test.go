package core

import (
	"geomancy/internal/nn"
	"geomancy/internal/policy"
)

// predictCandidate is the reference oracle for the batched scoring
// pipeline: the per-sample prediction the engine made before batching,
// kept test-only so the score vectors the pipeline writes (proposeScored)
// can be compared against an independent implementation. It returns the adjusted predicted
// throughput (bytes/s) of accessing file f when placed on device.
func (e *Engine) predictCandidate(f policy.FileInfo, device string) float64 {
	// Candidate feature row: the file's typical access at this location,
	// stamped at the most recent known time.
	ff := e.gatherFileFeatures(f)
	devIdx, ok := e.devIndex[device]
	if !ok {
		devIdx = len(e.devices)
	}
	// The whole row raw, then every column scaled: the one-row form of
	// what scoreRun assembles from a task's shared file columns.
	norm := []float64{logBytes(ff.rb), logBytes(ff.wb), ff.ts, ff.ts, float64(f.ID), float64(devIdx)}
	for c, v := range norm {
		norm[c] = e.featScaler.TransformValue(c, v)
	}
	pred := e.net.PredictOne([][]float64{norm})

	raw := DecodeTarget(e.targetScaler.Inverse(clamp01(pred)))
	return nn.AdjustPrediction(raw, e.valMetrics)
}
