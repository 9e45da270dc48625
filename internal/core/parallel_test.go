package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"geomancy/internal/policy"
	"geomancy/internal/replaydb"
	"geomancy/internal/storagesim"
	"geomancy/internal/telemetry"
	"geomancy/internal/trace"
	"geomancy/internal/workload"
)

// quickLoop assembles a small closed loop over an in-memory testbed.
func quickLoop(t *testing.T) *Loop {
	t.Helper()
	cluster := storagesim.NewBluesky(13)
	files := trace.BelleFileSet(13)
	runner := workload.NewRunner(cluster, files, 1, 13)
	if err := runner.SpreadEvenly(cluster.DeviceNames()); err != nil {
		t.Fatal(err)
	}
	db, err := replaydb.Open(replaydb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	loop, err := NewNamedLoop(db, db, cluster, runner, "geomancy", Config{Epochs: 4, WindowX: 300, CooldownRuns: 2, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	return loop
}

// trainedEngine builds and trains an engine over a fresh seeded DB.
func trainedEngine(t *testing.T, mutate func(*Config)) *Engine {
	t.Helper()
	db := seedDB(t, 900)
	cfg := quickCfg()
	if mutate != nil {
		mutate(&cfg)
	}
	e, err := NewEngine(db, testDevices, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.TrainContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	return e
}

// The batched pipeline must reproduce the per-pair predictCandidate oracle
// exactly — the regression anchor for the batched engine.
func TestCandidateScoresMatchLegacyPredict(t *testing.T) {
	e := trainedEngine(t, nil)
	files := []policy.FileInfo{
		{ID: 1, Size: 1e8, Device: "pic"},   // deep history in seedDB
		{ID: 3, Size: 2e8, Device: "var"},   // other history
		{ID: 999, Size: 5e7, Device: "tmp"}, // never accessed
	}
	_, _, scores, err := e.proposeScored(context.Background(), files)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range files {
		for _, dev := range e.devices {
			got, ok := scores[i][dev]
			if want := e.predictCandidate(f, dev); !ok || got != want {
				t.Errorf("file %d on %s: batched %v != legacy %v", f.ID, dev, got, want)
			}
		}
	}
}

// A parallel engine must propose the exact layout a serial engine does at
// the same seed: scoring is bit-identical at any parallelism and the
// rng-consuming selection stays serial in file order. The working set is
// 130 files × 6 devices: runs of 42 files (252 rows), then a partial one,
// so two and four workers both get runs to share. Before each later round
// every third file sees fresh telemetry, so the pruned engine's runs mix
// files whose features it refetches with files that keep cached ones.
func TestProposeLayoutParallelMatchesSerial(t *testing.T) {
	const nFiles = 130
	files := make([]policy.FileInfo, nFiles)
	for i := range files {
		files[i] = policy.FileInfo{ID: int64(i + 1), Size: int64(1e6 * (i%7 + 1)), Device: testDevices[i%len(testDevices)]}
	}
	type round struct {
		rows   float64
		layout map[int64]string
		preds  []policy.Prediction
		scores []map[string]float64
	}
	decide := func(t *testing.T, topK, par int) []round {
		e := trainedEngine(t, func(c *Config) {
			c.Epsilon = 0.3 // exercise the exploration branch too
			c.TopK = topK
			c.Parallelism = par
		})
		reg := telemetry.NewRegistry()
		e.SetMetrics(reg)
		rows := reg.Histogram(telemetry.MetricInferenceBatchSize, telemetry.DefBatchSizeBuckets)
		db := e.db.(*replaydb.DB)
		var rounds []round
		for r := 0; r < 3; r++ {
			if r > 0 {
				for i := r % 3; i < nFiles; i += 3 {
					if _, err := db.AppendAccess(replaydb.AccessRecord{
						Time: float64(5000 + 200*r + i), FileID: files[i].ID, Device: files[i].Device, BytesRead: 2e8,
						OpenTS: int64(5000 + 200*r + i), CloseTS: int64(5001 + 200*r + i), Throughput: 1.5e9,
					}); err != nil {
						t.Fatal(err)
					}
				}
			}
			before := rows.Sum()
			layout, preds, scores, err := e.proposeScored(context.Background(), files)
			if err != nil {
				t.Fatal(err)
			}
			rounds = append(rounds, round{rows.Sum() - before, layout, preds, scores})
		}
		return rounds
	}
	for _, tc := range []struct {
		name string
		topK int
		// rows each round must score: every file against the shortlist ∪
		// its current device, which with no summary source is every
		// pairing, pruned or not.
		rows []float64
	}{
		{"all-device passes", 0, []float64{nFiles * 6, nFiles * 6, nFiles * 6}},
		{"pruned passes", 6, []float64{nFiles * 6, nFiles * 6, nFiles * 6}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := decide(t, tc.topK, 1)
			for r, w := range want {
				if w.rows != tc.rows[r] {
					t.Fatalf("round %d scored %v rows, want %v", r, w.rows, tc.rows[r])
				}
			}
			for _, par := range []int{2, 4} {
				for r, got := range decide(t, tc.topK, par) {
					w := want[r]
					if got.rows != w.rows || !reflect.DeepEqual(got.layout, w.layout) || !reflect.DeepEqual(got.preds, w.preds) {
						t.Fatalf("parallelism %d round %d: decisions differ from the serial engine's", par, r)
					}
					for i := range files {
						if len(got.scores[i]) != len(w.scores[i]) {
							t.Fatalf("parallelism %d round %d file %d: %d scores, serial %d", par, r, files[i].ID, len(got.scores[i]), len(w.scores[i]))
						}
						for dev, v := range w.scores[i] {
							if math.Float64bits(got.scores[i][dev]) != math.Float64bits(v) {
								t.Fatalf("parallelism %d round %d file %d on %s: %v, serial %v", par, r, files[i].ID, dev, got.scores[i][dev], v)
							}
						}
					}
				}
			}
		})
	}
}

// The engine keeps no batch-sized buffers between decisions: after a
// decision that scored 40 200 candidate rows on four workers, everything
// the lane pool holds — per worker, one run's input rows, its predictions
// and one block of activations — is under 2 MB (the whole-batch
// activations were 54 MB).
func TestScoringScratchStaysBlockSized(t *testing.T) {
	e := trainedEngine(t, func(c *Config) { c.Parallelism = 4 })
	reg := telemetry.NewRegistry()
	e.SetMetrics(reg)
	files := make([]policy.FileInfo, 6700)
	for i := range files {
		files[i] = policy.FileInfo{ID: int64(i + 1), Size: int64(1e6 * (i%7 + 1)), Device: testDevices[i%len(testDevices)]}
	}
	if _, _, err := e.ProposeLayoutContext(context.Background(), files); err != nil {
		t.Fatal(err)
	}
	rows := reg.Histogram(telemetry.MetricInferenceBatchSize, telemetry.DefBatchSizeBuckets).Sum()
	if want := float64(len(files) * len(testDevices)); rows != want {
		t.Fatalf("the decision scored %v rows, want %v", rows, want)
	}
	if n := len(e.pool.lanes); n != 4 {
		t.Fatalf("the decision ran on %d lanes, want 4", n)
	}
	live := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := live()
	e.pool.lanes = nil
	freed := before - live()
	// The engine outlives the second reading, so only the lanes are freed.
	runtime.KeepAlive(e)
	if freed > 2<<20 {
		t.Errorf("dropping the lane pool after a %v-row decision freed %d B, want under 2 MB", rows, freed)
	}
}

// The worker bound never reaches training: Parallelism 1, 2 and 8 train
// the same model bit for bit.
func TestTrainParallelDeterministicAcrossWorkerCounts(t *testing.T) {
	train := func(par int) TrainReport {
		db := seedDB(t, 900)
		cfg := quickCfg()
		cfg.Parallelism = par
		e, err := NewEngine(db, testDevices, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.TrainContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	want := train(1)
	for _, par := range []int{2, 8} {
		got := train(par)
		if math.Float64bits(got.FinalLoss) != math.Float64bits(want.FinalLoss) ||
			math.Float64bits(got.Validation.MARE) != math.Float64bits(want.Validation.MARE) {
			t.Errorf("parallelism %d vs 1: loss %v/%v, MARE %v/%v",
				par, got.FinalLoss, want.FinalLoss, got.Validation.MARE, want.Validation.MARE)
		}
	}
}

// Cancellation must surface promptly from TrainContext and
// ProposeLayoutContext with the context's error in the chain.
func TestTrainContextCancel(t *testing.T) {
	db := seedDB(t, 900)
	cfg := quickCfg()
	cfg.Epochs = 1000
	e, err := NewEngine(db, testDevices, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.TrainContext(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("TrainContext(cancelled) = %v, want context.Canceled", err)
	}
	if e.trained {
		t.Error("cancelled training must not mark the engine trained")
	}
}

func TestProposeLayoutContextCancel(t *testing.T) {
	e := trainedEngine(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	files := []policy.FileInfo{{ID: 1, Size: 1e6, Device: "pic"}}
	if _, _, err := e.ProposeLayoutContext(ctx, files); !errors.Is(err, context.Canceled) {
		t.Errorf("ProposeLayoutContext(cancelled) = %v, want context.Canceled", err)
	}
}

// The engine's failure modes are typed sentinels callers can match.
func TestSentinelErrors(t *testing.T) {
	empty, err := replaydb.Open(replaydb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer empty.Close()
	e, err := NewEngine(empty, testDevices, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.TrainContext(context.Background()); !errors.Is(err, ErrNoTelemetry) {
		t.Errorf("Train on empty DB = %v, want ErrNoTelemetry", err)
	}
	if _, _, err := e.ProposeLayoutContext(context.Background(), []policy.FileInfo{{ID: 1}}); !errors.Is(err, ErrNotTrained) {
		t.Errorf("ProposeLayout untrained = %v, want ErrNotTrained", err)
	}
}

// The loop surfaces cancellation without applying a partial layout.
func TestLoopRunOnceContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	loop := quickLoop(t)
	if _, err := loop.RunOnceContext(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("RunOnceContext(cancelled) = %v, want context.Canceled", err)
	}
	if loop.accessCount != 0 {
		t.Errorf("cancelled run recorded %d accesses before the first item, want 0", loop.accessCount)
	}
}
