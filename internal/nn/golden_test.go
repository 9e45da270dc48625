package nn

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"geomancy/internal/mat"
)

// digestFloats folds the exact bit patterns of every value into an FNV-64a
// hash, so two digests agree only when the values agree bit for bit.
func digestFloats(groups ...[]float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, g := range groups {
		for _, v := range g {
			bits := math.Float64bits(v)
			for i := range b {
				b[i] = byte(bits >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func digestMatrices(ms []*mat.Matrix) string {
	groups := make([][]float64, len(ms))
	for i, m := range ms {
		groups[i] = m.Data
	}
	return digestFloats(groups...)
}

// goldenFits pins the trained weights (and Adam's moments) of the deployed
// dense model and the recurrent runner-up across commits. The digests were
// captured on the allocating per-minibatch trainer that preceded the
// per-Fit scratch; any change to the order of floating-point operations in
// the forward pass, the backward kernels or the optimizers shows up here.
var goldenFits = []struct {
	model   int
	adam    bool
	params  string
	moments string // Adam only
}{
	{model: 1, params: "186f7b8cfd5b7523"},
	{model: 1, adam: true, params: "5c80ff64a02aeeed", moments: "e06ae447eb02ef89"},
	{model: 18, params: "0bdb92e67b62818d"},
	{model: 18, adam: true, params: "fdb02fbeb452b0dc", moments: "4830bd207d928869"},
}

// Every golden is reached at FitConfig.Parallelism 1 and at 4: the field is
// inert, there is one trained result per seed.
func TestFitGoldenWeights(t *testing.T) {
	for _, g := range goldenFits {
		for _, parallelism := range []int{1, 4} {
			name := fmt.Sprintf("model%d/adam=%v/par%d", g.model, g.adam, parallelism)
			t.Run(name, func(t *testing.T) {
				onEachKernel(t, func(kernel string) {
					net, err := BuildModel(g.model, 6, rand.New(rand.NewSource(3)))
					if err != nil {
						t.Fatal(err)
					}
					// 203 samples: six full 32-row batches and a last batch of
					// 11 (dense) or 4 (recurrent, Window 8) rows.
					ds := testDataset(rand.New(rand.NewSource(8)), 203, 6)
					var opt Optimizer = &SGD{LR: 0.05}
					adam := NewAdam(0.005)
					if g.adam {
						opt = adam
					}
					if _, err := net.Fit(ds, FitConfig{
						Epochs:      3,
						BatchSize:   32,
						Optimizer:   opt,
						Rng:         rand.New(rand.NewSource(2)),
						Parallelism: parallelism,
					}); err != nil {
						t.Fatal(err)
					}
					if got := digestMatrices(net.Params()); got != g.params {
						t.Errorf("%s kernels: params digest %s, want %s", kernel, got, g.params)
					}
					if g.adam {
						got := digestFloats(append(append([][]float64{{float64(adam.t)}}, adam.m...), adam.v...)...)
						if got != g.moments {
							t.Errorf("%s kernels: Adam moments digest %s, want %s", kernel, got, g.moments)
						}
					}
				})
			})
		}
	}
}
