package generator

import (
	"fmt"
	"math"

	"geomancy/internal/rng"
)

// ZipfianTheta is the canonical skew constant (YCSB's 0.99): rank-1
// draws roughly one in five operations over a few dozen items.
const ZipfianTheta = 0.99

// Zipfian draws ranks 0..items-1 with P(rank k) ∝ 1/(k+1)^θ, using
// Gray et al.'s "Quickly Generating Billion-Record Synthetic Databases"
// construction as popularized by YCSB.
//
// Rank 0 is the most popular item. Scenarios that want hot items spread
// across the keyspace should permute ranks themselves (deterministically)
// rather than rely on hashing, which would leave the hot set opaque to
// distribution assertions.
type Zipfian struct {
	items int64
	theta float64
	zetan float64 // ζ(items, θ), the normalizer

	// Derived constants (functions of theta, items and zetan): Next's
	// rank-1 threshold 1 + 0.5^θ, and the η and 1/(1-θ) of its rank
	// formula.
	//geomancy:ephemeral recomputed from theta, items and zetan by deriveConstants on construction and restore
	rank1 float64
	eta   float64 //geomancy:ephemeral recomputed from theta, items and zetan by deriveConstants on construction and restore
	alpha float64 //geomancy:ephemeral recomputed from theta by deriveConstants on construction and restore
}

// NewZipfian returns a zipfian generator over ranks [0, items) with
// skew theta in (0, 1); items must be ≥ 1.
func NewZipfian(items int64, theta float64) *Zipfian {
	if items < 1 {
		items = 1
	}
	if theta <= 0 || theta >= 1 {
		theta = ZipfianTheta
	}
	z := &Zipfian{items: items, theta: theta, zetan: zeta(items, theta)}
	z.deriveConstants()
	return z
}

func (z *Zipfian) deriveConstants() {
	z.rank1 = 1 + math.Pow(0.5, z.theta)
	z.eta = (1 - math.Pow(2/float64(z.items), 1-z.theta)) / (1 - zeta(2, z.theta)/z.zetan)
	z.alpha = 1 / (1 - z.theta)
}

// zeta returns ζ(n, θ) = Σ_{i=1..n} 1/i^θ.
func zeta(n int64, theta float64) float64 {
	var sum float64
	for i := int64(0); i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), theta)
	}
	return sum
}

// Next implements Generator, returning a rank in [0, items).
func (z *Zipfian) Next(r *rng.RNG) int64 {
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.rank1 {
		return 1
	}
	rank := int64(float64(z.items) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if rank >= z.items {
		rank = z.items - 1
	}
	return rank
}

// State implements Generator. The item count is stored twice: the second
// register was the count ζ had been summed to when the count could grow
// mid-stream, and the snapshot keeps its shape.
func (z *Zipfian) State() State {
	return State{
		Kind: kindZipfian,
		I:    []int64{z.items, z.items},
		F:    []float64{z.theta, z.zetan},
	}
}

// RestoreState implements Generator. Next draws a rank below the item
// count from θ and ζ, so a count below one, a θ outside NewZipfian's
// domain (0, 1), and a ζ that is not finite or is below ζ(1, θ) = 1 are
// refused, with the generator left as it was.
func (z *Zipfian) RestoreState(s State) error {
	if err := s.check(kindZipfian, 2, 2); err != nil {
		return err
	}
	if s.I[0] < 1 {
		return fmt.Errorf("generator: zipfian state has %d items", s.I[0])
	}
	if s.I[0] != s.I[1] {
		return fmt.Errorf("generator: zipfian state normalized over %d of %d items", s.I[1], s.I[0])
	}
	if theta := s.F[0]; !(theta > 0 && theta < 1) {
		return fmt.Errorf("generator: zipfian state has θ = %v outside (0, 1)", theta)
	}
	if zeta := s.F[1]; !(zeta >= 1) || math.IsInf(zeta, 1) {
		return fmt.Errorf("generator: zipfian state has ζ = %v", zeta)
	}
	z.items = s.I[0]
	z.theta, z.zetan = s.F[0], s.F[1]
	z.deriveConstants()
	return nil
}
