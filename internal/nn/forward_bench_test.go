package nn

import (
	"math/rand"
	"testing"

	"geomancy/internal/mat"
)

// benchInputs builds a batch of random feature rows for model 1.
func benchInputs(b *testing.B, batch int) (*Network, *mat.Matrix) {
	b.Helper()
	net, err := BuildModel(1, 6, rand.New(rand.NewSource(5)))
	if err != nil {
		b.Fatal(err)
	}
	return net, mat.FromRows(randomRows(rand.New(rand.NewSource(9)), batch, 6))
}

func benchmarkForwardPerSample(b *testing.B, batch int) {
	net, flat := benchInputs(b, batch)
	rows := make([][][]float64, batch)
	for r := 0; r < batch; r++ {
		rows[r] = [][]float64{flat.Row(r)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < batch; r++ {
			net.PredictOne(rows[r])
		}
	}
}

func benchmarkForwardBatch(b *testing.B, batch int) {
	net, flat := benchInputs(b, batch)
	s := &Scratch{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ForwardBatch(flat, nil, s)
	}
}

func BenchmarkForwardPerSample64(b *testing.B)  { benchmarkForwardPerSample(b, 64) }
func BenchmarkForwardPerSample256(b *testing.B) { benchmarkForwardPerSample(b, 256) }
func BenchmarkForwardBatch64(b *testing.B)      { benchmarkForwardBatch(b, 64) }
func BenchmarkForwardBatch256(b *testing.B)     { benchmarkForwardBatch(b, 256) }

func BenchmarkFit(b *testing.B) {
	ds := testDataset(rand.New(rand.NewSource(8)), 2000, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		net, err := BuildModel(1, 6, rand.New(rand.NewSource(3)))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := net.Fit(ds, FitConfig{
			Epochs:    4,
			BatchSize: 32,
			Optimizer: &SGD{LR: 0.05},
		}); err != nil {
			b.Fatal(err)
		}
	}
}
