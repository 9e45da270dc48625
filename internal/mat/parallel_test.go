package mat

import (
	"fmt"
	"math/rand"
	"testing"
)

func randomMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// ParallelMulTo must be bit-for-bit identical to MulTo at every worker
// count: sharding by output rows never changes any row's arithmetic order.
// And both must be on either implementation what the portable MulTo gives.
func TestParallelMulToMatchesMulTo(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, shape := range [][3]int{{1, 6, 8}, {33, 6, 96}, {200, 96, 1}, {130, 17, 17}, {130, 96, 48}} {
		a := randomMatrix(rng, shape[0], shape[1])
		b := randomMatrix(rng, shape[1], shape[2])
		var want *Matrix
		onEachKernel(t, func(kernel string) {
			serial := New(shape[0], shape[2])
			MulTo(serial, a, b)
			if want == nil {
				want = serial // the portable kernels run first
			}
			assertSameBits(t, fmt.Sprintf("%s shape %v MulTo", kernel, shape), serial, want)
			for _, workers := range []int{1, 2, 4, 16} {
				got := New(shape[0], shape[2])
				got.Fill(99) // pre-dirtied: ParallelMulTo must overwrite fully
				ParallelMulTo(got, a, b, workers)
				assertSameBits(t, fmt.Sprintf("%s shape %v workers %d", kernel, shape, workers), got, want)
			}
		})
	}
}

func TestParallelMulToShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched inner dims should panic")
		}
	}()
	ParallelMulTo(New(2, 2), New(2, 3), New(4, 2), 2)
}
