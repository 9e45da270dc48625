package core

import (
	"context"
	"testing"

	"geomancy/internal/policy"
)

// benchmarkProposeLayout measures a full decision over a large synthetic
// working set at the given worker-pool size.
func benchmarkProposeLayout(b *testing.B, files, par int) {
	db := seedDB(b, 1200)
	cfg := quickCfg()
	cfg.Parallelism = par
	e, err := NewEngine(db, testDevices, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.TrainContext(context.Background()); err != nil {
		b.Fatal(err)
	}
	metas := make([]policy.FileInfo, files)
	for i := range metas {
		metas[i] = policy.FileInfo{ID: int64(i%30 + 1), Size: int64(1e6 * (i%7 + 1)), Device: testDevices[i%len(testDevices)]}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.ProposeLayoutContext(context.Background(), metas); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProposeLayout200Serial(b *testing.B)    { benchmarkProposeLayout(b, 200, 1) }
func BenchmarkProposeLayout200Parallel4(b *testing.B) { benchmarkProposeLayout(b, 200, 4) }
func BenchmarkProposeLayout200Parallel8(b *testing.B) { benchmarkProposeLayout(b, 200, 8) }
