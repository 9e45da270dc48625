// Package generator is the workload plane's library of deterministic
// value generators — the distributions a scenario draws file indices,
// operation offsets, and population sizes from (zipfian, hotspot,
// counter, and a histogram-backed size generator, modeled on the YCSB
// generator suite).
//
// Every generator is a pure function of the *rng.RNG stream passed to
// Next plus its own registers, and those registers are fully
// extractable: State returns a flat, gob-friendly snapshot and
// RestoreState rewinds a fresh instance to it, so a scenario
// checkpointed mid-run resumes its draw sequence bit-identically. No
// generator owns a stream — the caller's RNG is threaded through every
// draw, keeping one serializable stream per workload.
package generator

import (
	"fmt"

	"geomancy/internal/rng"
)

// Generator produces one value per draw from the caller's stream.
// Implementations must be deterministic: equal streams and equal
// restored states yield equal sequences.
type Generator interface {
	// Next draws the next value using r as the only entropy source.
	Next(r *rng.RNG) int64
	// State snapshots every register that influences future draws.
	State() State
	// RestoreState rewinds the generator to a previously captured
	// snapshot; a snapshot of the wrong Kind is rejected.
	RestoreState(State) error
}

// State is the serializable snapshot of any generator: a kind tag plus
// the generator's integer and float registers, flattened so the whole
// value gob-encodes without interface indirection.
type State struct {
	Kind string
	I    []int64
	F    []float64
}

// check validates a snapshot's shape before a restore touches registers.
func (s State) check(kind string, ni, nf int) error {
	if s.Kind != kind {
		return fmt.Errorf("generator: restoring %q state into a %s generator", s.Kind, kind)
	}
	if len(s.I) != ni || len(s.F) != nf {
		return fmt.Errorf("generator: %s state has %d/%d registers, want %d/%d",
			kind, len(s.I), len(s.F), ni, nf)
	}
	return nil
}

// Kind tags of the package's generators.
const (
	kindCounter       = "counter"
	kindZipfian       = "zipfian"
	kindHotspot       = "hotspot"
	kindSizeHistogram = "size-histogram"
)

// Counter is the sequential generator: it returns lo, lo+1, lo+2, …,
// ignoring the stream entirely. Scenarios use it for ingest heads and
// scan cursors.
type Counter struct {
	next int64
}

// NewCounter returns a counter starting at start.
func NewCounter(start int64) *Counter { return &Counter{next: start} }

// Next implements Generator. The stream is untouched: a counter draw
// must not perturb the workload's other distributions.
func (c *Counter) Next(*rng.RNG) int64 {
	v := c.next
	c.next++
	return v
}

// Last returns the most recently returned value (start-1 before the
// first draw) — the ingest head a latest-skewed read distribution
// trails behind.
func (c *Counter) Last() int64 { return c.next - 1 }

// State implements Generator.
func (c *Counter) State() State {
	return State{Kind: kindCounter, I: []int64{c.next}}
}

// RestoreState implements Generator. Counters index file sets from 0 up,
// so a negative register is refused, with the counter left as it was.
func (c *Counter) RestoreState(s State) error {
	if err := s.check(kindCounter, 1, 0); err != nil {
		return err
	}
	if s.I[0] < 0 {
		return fmt.Errorf("generator: counter state %d is negative", s.I[0])
	}
	c.next = s.I[0]
	return nil
}

// Hotspot draws from [lo, hi] with a configurable skew: a hot fraction
// of the range receives a (typically much larger) fraction of the
// draws; the rest spread uniformly over the cold remainder.
type Hotspot struct {
	lo, hi  int64
	hotFrac float64
	hotOpn  float64
}

// NewHotspot returns a hotspot generator over [lo, hi] where the first
// hotFrac of the interval receives hotOpn of the operations.
func NewHotspot(lo, hi int64, hotFrac, hotOpn float64) *Hotspot {
	if hi < lo {
		hi = lo
	}
	return &Hotspot{lo: lo, hi: hi, hotFrac: clamp01(hotFrac), hotOpn: clamp01(hotOpn)}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// hotCount returns the size of the hot segment, at least 1.
func (h *Hotspot) hotCount() int64 {
	n := h.hi - h.lo + 1
	hot := int64(h.hotFrac * float64(n))
	if hot < 1 {
		hot = 1
	}
	if hot > n {
		hot = n
	}
	return hot
}

// Next implements Generator.
func (h *Hotspot) Next(r *rng.RNG) int64 {
	n := h.hi - h.lo + 1
	hot := h.hotCount()
	cold := n - hot
	if cold <= 0 || r.Float64() < h.hotOpn {
		return h.lo + r.Int63n(hot)
	}
	return h.lo + hot + r.Int63n(cold)
}

// State implements Generator.
func (h *Hotspot) State() State {
	return State{Kind: kindHotspot, I: []int64{h.lo, h.hi}, F: []float64{h.hotFrac, h.hotOpn}}
}

// RestoreState implements Generator. Next draws from a non-empty range
// of file indices, so a negative lo or an hi below lo is refused, with the
// generator left as it was.
func (h *Hotspot) RestoreState(s State) error {
	if err := s.check(kindHotspot, 2, 2); err != nil {
		return err
	}
	if lo, hi := s.I[0], s.I[1]; lo < 0 || hi < lo {
		return fmt.Errorf("generator: hotspot state draws from [%d, %d]", lo, hi)
	}
	h.lo, h.hi = s.I[0], s.I[1]
	h.hotFrac, h.hotOpn = s.F[0], s.F[1]
	return nil
}
