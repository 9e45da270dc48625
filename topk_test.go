package geomancy

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"geomancy/internal/core"
	"geomancy/internal/policy"
	"geomancy/internal/replaydb"
	"geomancy/internal/storagesim"
	"geomancy/internal/telemetry"
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
// knobs, reading through a store that counts per-file history fetches.
// The returned dirty function appends fresh telemetry for a fraction of
// the population, modelling the steady-state cycle where most files are
// cold between decisions.
type warehouseFixture struct {
	engine *core.Engine
	db     *replaydb.DB
	store  *fetchCountingStore
	files  []policy.FileInfo
	dirty  func(fraction float64)
}

// fetchCountingStore is the ReplayDB with every read of one file's recent
// history counted, whether the engine walks it in place or copies it. The
// embedded DB keeps the dirty-tracking capability visible to the engine.
type fetchCountingStore struct {
	*replaydb.DB
	fetches int
}

func (c *fetchCountingStore) EachRecentByFile(id int64, n int, fn func(*replaydb.AccessRecord)) {
	c.fetches++
	c.DB.EachRecentByFile(id, n, fn)
}

func (c *fetchCountingStore) RecentByFile(id int64, n int) []replaydb.AccessRecord {
	c.fetches++
	return c.DB.RecentByFile(id, n)
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
	store := &fetchCountingStore{DB: db}
	eng, err := core.NewEngine(store, devices, cfg)
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
		store:  store,
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

// TestTopKPrunedWork pins what pruning saves per decision at 2048 files ×
// 64 devices (TopK=2 over eight classes, a quarter of the files given
// fresh telemetry before every decision), counted rather than timed, so it
// holds on any machine. An exhaustive decision scores every files×devices
// row and fetches every file's history. A steady-state pruned decision
// scores each file against the 16 shortlisted devices plus its current
// one, 17/64 of the rows at most, and fetches only the histories of the
// files whose telemetry changed. bench/'s warehouse-topk workload carries
// the absolute times.
func TestTopKPrunedWork(t *testing.T) {
	const nFiles, nDev, reps = 2048, 64, 4
	// Class c holds the devices i ≡ c (mod 8), ranked by i/8, so the top two
	// of every class are devices 48–63.
	shortlisted := func(dev string) bool {
		var i int
		if _, err := fmt.Sscanf(dev, "dev%03d", &i); err != nil {
			t.Fatal(err)
		}
		return i >= 48
	}
	for _, tc := range []struct {
		name             string
		topK, fullRescan int
	}{
		{"exhaustive", 0, 0},
		{"pruned", 2, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWarehouse(t, nFiles, nDev, tc.topK, tc.fullRescan)
			reg := telemetry.NewRegistry()
			w.engine.SetMetrics(reg)
			rows := reg.Histogram(telemetry.MetricInferenceBatchSize, telemetry.DefBatchSizeBuckets)
			for i := 0; i <= reps; i++ { // the first decision is always a full pass
				mark := w.db.Watermark()
				w.dirty(0.25)
				dirty := len(w.db.FilesChangedSince(mark))
				before := rows.Sum()
				w.store.fetches = 0
				if _, _, err := w.engine.ProposeLayoutContext(context.Background(), w.files); err != nil {
					t.Fatal(err)
				}
				wantRows, wantFetches := nFiles*nDev, nFiles
				if tc.topK > 0 && i > 0 {
					wantRows, wantFetches = 0, dirty
					for _, f := range w.files {
						wantRows += 16
						if !shortlisted(f.Device) {
							wantRows++
						}
					}
				}
				if got := rows.Sum() - before; got != float64(wantRows) {
					t.Errorf("decision %d scored %v rows, want %d", i, got, wantRows)
				}
				if w.store.fetches != wantFetches {
					t.Errorf("decision %d fetched %d file histories, want %d (%d files dirty)", i, w.store.fetches, wantFetches, dirty)
				}
			}
		})
	}
}
