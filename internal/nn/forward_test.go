package nn

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"geomancy/internal/mat"
)

// randomRows returns n random feature rows of width z.
func randomRows(rng *rand.Rand, n, z int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, z)
		for c := range rows[i] {
			rows[i][c] = rng.Float64()
		}
	}
	return rows
}

// testDataset builds a learnable synthetic dataset: y = mean(x) + noise.
func testDataset(rng *rand.Rand, n, z int) *Dataset {
	rows := randomRows(rng, n, z)
	y := make([]float64, n)
	for i, r := range rows {
		var s float64
		for _, v := range r {
			s += v
		}
		y[i] = s/float64(z) + 0.01*rng.Float64()
	}
	return NewDataset(mat.FromRows(rows), y)
}

// ForwardBatch must be bit-for-bit identical to per-sample PredictOne
// calls, to Forward, and to itself at any batch height — below, at and
// past the block boundaries, on one scratch that meets the heights in no
// particular order — for dense and recurrent architectures alike.
func TestForwardBatchMatchesForward(t *testing.T) {
	for _, model := range []int{1, 18, 21} { // dense, SimpleRNN, LSTM head
		rng := rand.New(rand.NewSource(5))
		net, err := BuildModel(model, 6, rng)
		if err != nil {
			t.Fatal(err)
		}
		net.Window = 4
		s := &Scratch{}
		drng := rand.New(rand.NewSource(9))
		for _, batch := range []int{37, 4097, 1, 256, 255, 513, 257} {
			var flat *mat.Matrix
			var seq []*mat.Matrix
			if net.IsRecurrent() {
				seq = make([]*mat.Matrix, net.Window)
				for ti := range seq {
					seq[ti] = mat.FromRows(randomRows(drng, batch, 6))
				}
			} else {
				flat = mat.FromRows(randomRows(drng, batch, 6))
			}
			// Per-sample: batching does not change any row's result.
			want := mat.New(batch, 1)
			for r := 0; r < batch; r++ {
				if net.IsRecurrent() {
					win := make([][]float64, net.Window)
					for ti := range win {
						win[ti] = seq[ti].Row(r)
					}
					want.Data[r] = net.PredictOne(win)
				} else {
					want.Data[r] = net.PredictOne([][]float64{flat.Row(r)})
				}
			}
			same := func(what string, got *mat.Matrix) {
				t.Helper()
				if got.Rows != batch || got.Cols != 1 {
					t.Fatalf("model %d batch %d %s: result is %dx%d", model, batch, what, got.Rows, got.Cols)
				}
				for i := range want.Data {
					if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
						t.Fatalf("model %d batch %d %s: row %d = %v, per-sample %v", model, batch, what, i, got.Data[i], want.Data[i])
					}
				}
			}
			same("Forward", net.Forward(flat, seq))
			same("ForwardBatch", net.ForwardBatch(flat, seq, s))
			// Reuse the scratch: buffers must not leak state between calls.
			same("ForwardBatch again", net.ForwardBatch(flat, seq, s))
		}
	}
}

// A scratch in steady state allocates nothing, whatever height the next
// batch has — a scoring worker never meets the same run height twice — and
// what it keeps is block-sized: after a 40 000-row batch, the output vector
// and one block of activations.
func TestForwardBatchSteadyState(t *testing.T) {
	net, err := BuildModel(1, 6, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	big := mat.FromRows(randomRows(rng, 40000, 6))
	s := &Scratch{}
	net.ForwardBatch(big, nil, s)
	retained := cap(s.out.Data)
	for _, a := range s.acts {
		retained += cap(a.Data)
	}
	if retained *= 8; retained > 2<<20 {
		t.Errorf("the scratch keeps %d B after a 40 000-row batch, want under 2 MB", retained)
	}
	some := &mat.Matrix{Cols: 6}
	if allocs := testing.AllocsPerRun(20, func() {
		some.Rows = (some.Rows + 7919) % big.Rows // a different height every time
		some.Data = big.Data[:some.Rows*6]
		net.ForwardBatch(some, nil, s)
	}); allocs != 0 {
		t.Errorf("a ForwardBatch on a warm scratch allocates %v objects", allocs)
	}
}

// A cancelled context stops Fit between epochs with ctx.Err().
func TestFitContextCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net, err := BuildModel(1, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	ds := testDataset(rand.New(rand.NewSource(8)), 100, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := net.Fit(ds, FitConfig{Epochs: 50, Optimizer: &SGD{LR: 0.05}, Ctx: ctx}); err != context.Canceled {
		t.Errorf("Fit with cancelled ctx returned %v, want context.Canceled", err)
	}
}

// Predict scores in minibatch-high blocks; its outputs are bit for bit
// what one ForwardBatch over every anchor returns, dense and recurrent,
// below, at and past a block's edge and past BlockRows.
func TestPredictMatchesForwardBatch(t *testing.T) {
	for _, model := range []int{1, 18} {
		for _, rows := range []int{1, 31, 33, 257} {
			net, err := BuildModel(model, 6, rand.New(rand.NewSource(5)))
			if err != nil {
				t.Fatal(err)
			}
			first := net.firstAnchor()
			ds := testDataset(rand.New(rand.NewSource(int64(rows))), first+rows, 6)
			var want *mat.Matrix
			if net.IsRecurrent() {
				anchors := make([]int32, rows)
				for i := range anchors {
					anchors[i] = int32(first + i)
				}
				want = net.ForwardBatch(nil, net.gatherSeq(ds, anchors), nil)
			} else {
				want = net.ForwardBatch(ds.X, nil, nil)
			}
			got, gotFirst := net.Predict(ds)
			if gotFirst != first || len(got) != rows {
				t.Fatalf("model %d, %d rows: Predict returned %d predictions from row %d, want %d from %d",
					model, rows, len(got), gotFirst, rows, first)
			}
			for i, p := range got {
				if math.Float64bits(p) != math.Float64bits(want.At(i, 0)) {
					t.Errorf("model %d, %d rows: prediction %d is %v, ForwardBatch %v", model, rows, i, p, want.At(i, 0))
					break
				}
			}
		}
	}
}
