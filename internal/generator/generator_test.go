package generator

import (
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"geomancy/internal/rng"
)

// every constructor paired with a name, for table-driven invariants.
func testGenerators(t *testing.T) map[string]func() Generator {
	t.Helper()
	return map[string]func() Generator{
		"counter": func() Generator { return NewCounter(7) },
		"zipfian": func() Generator { return NewZipfian(24, ZipfianTheta) },
		"hotspot": func() Generator { return NewHotspot(0, 23, 0.2, 0.8) },
		"size-histogram": func() Generator {
			h, err := NewSizeHistogram([]SizeBucket{
				{Lo: 1 << 10, Hi: 1 << 20, Weight: 0.7},
				{Lo: 1 << 20, Hi: 1 << 27, Weight: 0.2},
				{Lo: 1 << 27, Hi: 1 << 30, Weight: 0.1},
			})
			if err != nil {
				t.Fatal(err)
			}
			return h
		},
	}
}

// Equal seeds must yield identical draw sequences for every generator.
func TestSameSeedSameSequence(t *testing.T) {
	for name, mk := range testGenerators(t) {
		t.Run(name, func(t *testing.T) {
			g1, g2 := mk(), mk()
			r1, r2 := rng.New(42), rng.New(42)
			for i := 0; i < 1000; i++ {
				if a, b := g1.Next(r1), g2.Next(r2); a != b {
					t.Fatalf("draw %d diverged: %d vs %d", i, a, b)
				}
			}
		})
	}
}

// A State/RestoreState round trip taken mid-stream must continue the
// sequence exactly — including the stream position of the shared RNG.
func TestStateRoundTripMidStream(t *testing.T) {
	for name, mk := range testGenerators(t) {
		t.Run(name, func(t *testing.T) {
			g := mk()
			r := rng.New(7)
			for i := 0; i < 137; i++ {
				g.Next(r)
			}
			genSnap, rngSnap := g.State(), r.State()

			var want []int64
			for i := 0; i < 200; i++ {
				want = append(want, g.Next(r))
			}

			restored := mk()
			if err := restored.RestoreState(genSnap); err != nil {
				t.Fatal(err)
			}
			r2 := rng.FromState(rngSnap)
			for i, w := range want {
				if got := restored.Next(r2); got != w {
					t.Fatalf("draw %d after restore: got %d, want %d", i, got, w)
				}
			}
		})
	}
}

// RestoreState must reject a snapshot of the wrong kind.
func TestRestoreRejectsWrongKind(t *testing.T) {
	z := NewZipfian(10, 0.99)
	if err := z.RestoreState(NewCounter(0).State()); err == nil {
		t.Error("zipfian accepted a counter snapshot")
	}
}

// Zipfian rank frequencies must decrease monotonically in rank (the
// defining property Gray's construction is supposed to deliver).
func TestZipfianRankFrequencyMonotone(t *testing.T) {
	const items, draws = 20, 200000
	z := NewZipfian(items, ZipfianTheta)
	r := rng.New(1)
	counts := make([]int, items)
	for i := 0; i < draws; i++ {
		v := z.Next(r)
		if v < 0 || v >= items {
			t.Fatalf("draw out of range: %d", v)
		}
		counts[v]++
	}
	// The head must be strictly ordered; the tail is noisy at finite
	// sample sizes, so compare with one rank of slack there.
	for i := 0; i < 5; i++ {
		if counts[i] <= counts[i+1] {
			t.Errorf("rank %d (%d draws) not above rank %d (%d draws)",
				i, counts[i], i+1, counts[i+1])
		}
	}
	for i := 5; i < items-2; i++ {
		if counts[i] < counts[i+2] {
			t.Errorf("rank %d (%d draws) below rank %d (%d draws)",
				i, counts[i], i+2, counts[i+2])
		}
	}
	// Rank 0 of a θ≈0.99 zipfian over 20 items holds 1/ζ(20, θ) ≈ 27%
	// of the mass.
	if frac := float64(counts[0]) / draws; frac < 0.23 || frac > 0.31 {
		t.Errorf("rank-0 mass = %.3f, want ≈0.27", frac)
	}
}

func math_Abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// The hotspot generator must put hotOpn of the draws in the hot
// segment, within sampling tolerance.
func TestHotspotRatio(t *testing.T) {
	const lo, hi, draws = 0, 99, 100000
	h := NewHotspot(lo, hi, 0.2, 0.8)
	r := rng.New(5)
	hot := 0
	for i := 0; i < draws; i++ {
		v := h.Next(r)
		if v < lo || v > hi {
			t.Fatalf("draw out of range: %d", v)
		}
		if v < lo+20 { // hotFrac 0.2 of 100 values
			hot++
		}
	}
	if frac := float64(hot) / draws; frac < 0.77 || frac > 0.83 {
		t.Errorf("hot fraction = %.3f, want 0.80 ± 0.03", frac)
	}
}

// The size histogram's draw frequencies must match its bucket weights,
// and every size must fall inside its bucket's bounds.
func TestSizeHistogramMatchesWeights(t *testing.T) {
	buckets := []SizeBucket{
		{Lo: 1 << 10, Hi: 1 << 20, Weight: 0.7},
		{Lo: 1 << 20, Hi: 1 << 27, Weight: 0.2},
		{Lo: 1 << 27, Hi: 1 << 30, Weight: 0.1},
	}
	h, err := NewSizeHistogram(buckets)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(9)
	const draws = 100000
	counts := make([]int, len(buckets))
	for i := 0; i < draws; i++ {
		size := h.Next(r)
		idx := slices.IndexFunc(buckets, func(b SizeBucket) bool { return size >= b.Lo && size <= b.Hi })
		if idx < 0 {
			t.Fatalf("size %d outside every bucket", size)
		}
		counts[idx]++
	}
	for i, b := range buckets {
		got := float64(counts[i]) / draws
		if math_Abs(got-b.Weight) > 0.025 {
			t.Errorf("bucket %d frequency %.3f, want %.2f ± 0.025", i, got, b.Weight)
		}
	}
}

// The counter must count without touching the stream.
func TestCounterLeavesStreamUntouched(t *testing.T) {
	c := NewCounter(5)
	r := rng.New(13)
	before := r.State()
	for i := int64(5); i < 15; i++ {
		if v := c.Next(r); v != i {
			t.Fatalf("counter draw = %d, want %d", v, i)
		}
	}
	if r.State() != before {
		t.Error("counter consumed stream entropy")
	}
	if c.Last() != 14 {
		t.Errorf("Last = %d, want 14", c.Last())
	}
}

// NewSizeHistogram must reject empty and non-positive-weight inputs.
func TestSizeHistogramValidation(t *testing.T) {
	if _, err := NewSizeHistogram(nil); err == nil {
		t.Error("empty histogram accepted")
	}
	if _, err := NewSizeHistogram([]SizeBucket{{Lo: 1, Hi: 2, Weight: 0}}); err == nil {
		t.Error("zero-weight bucket accepted")
	}
}

// Next's constants are derived once per generator, not per draw: a
// generator draws the first 10 000 ranks of a fixed seed exactly as the
// per-draw arithmetic did (testdata/zipfian_4096.golden, taken from it),
// and one restored from that generator's State draws them again.
func TestZipfianGoldenDraws(t *testing.T) {
	raw, err := os.ReadFile("testdata/zipfian_4096.golden")
	if err != nil {
		t.Fatal(err)
	}
	var want []int64
	for _, f := range strings.Fields(string(raw)) {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, v)
	}
	if len(want) != 10000 {
		t.Fatalf("golden list holds %d draws, want 10000", len(want))
	}
	z := NewZipfian(4096, ZipfianTheta)
	restored := NewZipfian(7, 0.5)
	if err := restored.RestoreState(z.State()); err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*Zipfian{"original": z, "restored": restored} {
		r := rng.New(1)
		for i, w := range want {
			if got := g.Next(r); got != w {
				t.Fatalf("%s: draw %d = %d, golden %d", name, i, got, w)
			}
		}
	}
}
