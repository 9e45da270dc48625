package geomancy

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"geomancy/internal/core"
	"geomancy/internal/policy"
	"geomancy/internal/replaydb"
	"geomancy/internal/storagesim"
)

// TestTopKScenarioLayoutAgreement is the exactness contract end to end:
// on the Bluesky cluster (five device classes, no class wider than two)
// a TopK=2 shortlist covers every device, so a pruned system and an
// exhaustive system of the same seed must land identical layouts and
// identical throughput across the quick-scale scenario matrix.
func TestTopKScenarioLayoutAgreement(t *testing.T) {
	for _, scen := range []string{"belle", "write-ingest", "zipfian-hot"} {
		t.Run(scen, func(t *testing.T) {
			run := func(opts ...Option) (map[int64]string, float64) {
				sys := quickSystem(t, append([]Option{WithScenario(scen)}, opts...)...)
				if _, err := sys.RunN(8); err != nil {
					t.Fatal(err)
				}
				return sys.Layout(), sys.MeanThroughput()
			}
			exLayout, exTP := run()
			prLayout, prTP := run(WithTopK(2), WithFullRescanEvery(4))
			if !reflect.DeepEqual(exLayout, prLayout) {
				t.Errorf("pruned layout diverged from exhaustive:\n  exhaustive %v\n  pruned     %v", exLayout, prLayout)
			}
			if exTP != prTP {
				t.Errorf("mean throughput: exhaustive %v, pruned %v", exTP, prTP)
			}
		})
	}
}

// warehouseFixture is a warehouse-scale scoring population: nDev synthetic
// devices across eight hardware classes and nFiles files with seeded
// telemetry, plus a trained engine configured with the given pruning
// knobs. The returned dirty function appends fresh telemetry for a
// fraction of the population, modelling the steady-state cycle where most
// files are cold between decisions.
type warehouseFixture struct {
	engine *core.Engine
	db     *replaydb.DB
	files  []policy.FileInfo
	dirty  func(fraction float64)
}

func newWarehouse(tb testing.TB, nFiles, nDev, topK, fullRescan int) *warehouseFixture {
	tb.Helper()
	devices := make([]string, nDev)
	sums := make([]storagesim.DeviceSummary, nDev)
	speeds := make([]float64, nDev)
	for i := range devices {
		devices[i] = fmt.Sprintf("dev%03d", i)
		// Eight classes, class c clustered around (8-c) GB/s with a
		// per-device spread so shortlists have a real ranking to find.
		class := i % 8
		speeds[i] = float64(8-class)*1e9 + float64(i/8)*3e7
		sums[i] = storagesim.DeviceSummary{
			Name:             devices[i],
			Class:            fmt.Sprintf("class%d", class),
			RecentThroughput: speeds[i],
			Available:        true,
		}
	}
	db, err := replaydb.Open(replaydb.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	files := make([]policy.FileInfo, nFiles)
	r := rand.New(rand.NewSource(31))
	now := 0
	appendFor := func(id int64, dev int) {
		now++
		if _, err := db.AppendAccess(replaydb.AccessRecord{
			Time:       float64(now),
			FileID:     id,
			Device:     devices[dev],
			BytesRead:  int64(1e8 + r.Float64()*9e8),
			OpenTS:     int64(now),
			CloseTS:    int64(now),
			CloseTMS:   500,
			Throughput: speeds[dev] * (0.7 + 0.6*r.Float64()),
		}); err != nil {
			tb.Fatal(err)
		}
	}
	for i := range files {
		id := int64(i + 1)
		dev := r.Intn(nDev)
		files[i] = policy.FileInfo{
			ID:     id,
			Path:   fmt.Sprintf("/wh/f%04d", i),
			Size:   int64(1e8 + r.Float64()*4e8),
			Device: devices[dev],
		}
		appendFor(id, dev)
	}
	cfg := core.Config{
		Epochs:          4,
		WindowX:         600,
		Seed:            31,
		Epsilon:         0.05,
		TopK:            topK,
		FullRescanEvery: fullRescan,
	}
	eng, err := core.NewEngine(db, devices, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	eng.SetSummarySource(func() []storagesim.DeviceSummary { return sums })
	if _, err := eng.TrainContext(context.Background()); err != nil {
		tb.Fatal(err)
	}
	return &warehouseFixture{
		engine: eng,
		db:     db,
		files:  files,
		dirty: func(fraction float64) {
			n := int(float64(nFiles) * fraction)
			for k := 0; k < n; k++ {
				i := r.Intn(nFiles)
				appendFor(files[i].ID, r.Intn(nDev))
			}
		},
	}
}

// proposeWarehouse drives one steady-state decision cycle: a quarter of
// the population sees fresh telemetry, then the engine proposes a layout.
func proposeWarehouse(tb testing.TB, w *warehouseFixture) {
	w.dirty(0.25)
	if _, _, err := w.engine.ProposeLayoutContext(context.Background(), w.files); err != nil {
		tb.Fatal(err)
	}
}

// TestTopKSpeedup is the headline acceptance check: at 2048 files × 64
// devices, steady-state pruned decisions (TopK=2 over eight classes,
// 25% of files dirty per cycle) must average at least 5× lower ns/op
// than exhaustive decisions over the same population. bench/ carries the
// absolute numbers (warehouse-topk); this test pins the ratio, which holds
// on any machine, so a regression in the pruning plane fails loudly.
func TestTopKSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("warehouse-scale timing in -short mode")
	}
	const reps = 4
	measure := func(topK, fullRescan int) time.Duration {
		w := newWarehouse(t, 2048, 64, topK, fullRescan)
		proposeWarehouse(t, w) // first decision is always a full rescan
		start := time.Now()
		for i := 0; i < reps; i++ {
			proposeWarehouse(t, w)
		}
		return time.Since(start) / reps
	}
	exhaustive := measure(0, 0)
	pruned := measure(2, 16)
	ratio := float64(exhaustive) / float64(pruned)
	t.Logf("exhaustive %v/op, pruned %v/op: %.1fx", exhaustive, pruned, ratio)
	if ratio < 5 {
		t.Errorf("pruned scoring only %.1fx faster than exhaustive, want ≥ 5x", ratio)
	}
}
