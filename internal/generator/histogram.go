package generator

import (
	"fmt"
	"math"

	"geomancy/internal/rng"
)

// SizeBucket is one weighted band of a file-size histogram.
type SizeBucket struct {
	// Lo and Hi bound the sizes of this band in bytes, inclusive.
	Lo, Hi int64
	// Weight is the band's relative draw probability (any positive
	// scale; weights are normalized over the histogram).
	Weight float64
}

// SizeHistogram draws file sizes from a weighted bucket histogram:
// first a bucket proportionally to its weight, then a log-uniform size
// within the bucket (file sizes spread over decades, so log-uniform
// keeps every magnitude represented). It backs the mixed-sizes
// scenario's population — many small files, a heavy tail of huge ones —
// the shape the paper's fixed 24-file working set never probes.
type SizeHistogram struct {
	buckets []SizeBucket
	total   float64 //geomancy:ephemeral derived sum of bucket weights, recomputed wherever buckets are rebuilt
}

// NewSizeHistogram builds a histogram generator; buckets must be
// non-empty with positive weights and Lo ≥ 1.
func NewSizeHistogram(buckets []SizeBucket) (*SizeHistogram, error) {
	if len(buckets) == 0 {
		return nil, fmt.Errorf("generator: size histogram needs at least one bucket")
	}
	h := &SizeHistogram{buckets: append([]SizeBucket(nil), buckets...)}
	for i := range h.buckets {
		b := &h.buckets[i]
		if b.Lo < 1 {
			b.Lo = 1
		}
		if b.Hi < b.Lo {
			b.Hi = b.Lo
		}
		if b.Weight <= 0 {
			return nil, fmt.Errorf("generator: size bucket %d has non-positive weight %v", i, b.Weight)
		}
		h.total += b.Weight
	}
	return h, nil
}

// Next implements Generator, returning a size in bytes.
func (h *SizeHistogram) Next(r *rng.RNG) int64 {
	u := r.Float64() * h.total
	idx := len(h.buckets) - 1
	for i, b := range h.buckets {
		if u < b.Weight {
			idx = i
			break
		}
		u -= b.Weight
	}
	b := h.buckets[idx]
	if b.Lo == b.Hi {
		return b.Lo
	}
	logLo, logHi := math.Log(float64(b.Lo)), math.Log(float64(b.Hi))
	size := int64(math.Exp(logLo + r.Float64()*(logHi-logLo)))
	if size < b.Lo {
		size = b.Lo
	}
	if size > b.Hi {
		size = b.Hi
	}
	return size
}

// State implements Generator: buckets flatten to (Lo, Hi) pairs in I
// and weights in F.
func (h *SizeHistogram) State() State {
	st := State{Kind: kindSizeHistogram}
	for _, b := range h.buckets {
		st.I = append(st.I, b.Lo, b.Hi)
		st.F = append(st.F, b.Weight)
	}
	return st
}

// RestoreState implements Generator.
func (h *SizeHistogram) RestoreState(s State) error {
	if s.Kind != kindSizeHistogram {
		return fmt.Errorf("generator: restoring %q state into a %s generator", s.Kind, kindSizeHistogram)
	}
	if len(s.F) == 0 || len(s.I) != 2*len(s.F) {
		return fmt.Errorf("generator: %s state has %d/%d registers, want 2n/n",
			kindSizeHistogram, len(s.I), len(s.F))
	}
	buckets := make([]SizeBucket, len(s.F))
	for i := range buckets {
		buckets[i] = SizeBucket{Lo: s.I[2*i], Hi: s.I[2*i+1], Weight: s.F[i]}
	}
	restored, err := NewSizeHistogram(buckets)
	if err != nil {
		return err
	}
	*h = *restored
	return nil
}
