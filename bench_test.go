// Benchmarks regenerating every table and figure of the paper (one bench
// per artifact, at Quick scale so `go test -bench=.` terminates in
// minutes; use cmd/experiment -scale paper for the full-scale numbers),
// plus the ablation benches for the design decisions DESIGN.md calls out.
//
// Outcome-quality benches report a custom "GB/s" metric — the mean
// per-access throughput the configuration achieved — alongside the usual
// ns/op.
package geomancy

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"geomancy/internal/core"
	"geomancy/internal/experiments"
	"geomancy/internal/features"
	"geomancy/internal/mat"
	"geomancy/internal/nn"
	"geomancy/internal/replaydb"
	"geomancy/internal/storagesim"
	"geomancy/internal/trace"
	"geomancy/internal/workload"
)

// BenchmarkFig4Correlation regenerates the Fig. 4 feature-correlation
// report from a synthetic EOS trace.
func BenchmarkFig4Correlation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(experiments.Quick(int64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Correlations) == 0 {
			b.Fatal("empty correlation report")
		}
	}
}

// BenchmarkTable2ModelSearch trains and scores all 23 Table I
// architectures on people-mount telemetry.
func BenchmarkTable2ModelSearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(experiments.Quick(int64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Models) != nn.ModelCount {
			b.Fatalf("%d models", len(res.Models))
		}
	}
}

// BenchmarkTable3PerMount trains model 1 per storage point.
func BenchmarkTable3PerMount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table3(experiments.Quick(int64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.PerMount) != 6 {
			b.Fatalf("%d mounts", len(res.PerMount))
		}
	}
}

// BenchmarkFig5aDynamicPolicies runs the dynamic-policy comparison and
// reports Geomancy's mean throughput.
func BenchmarkFig5aDynamicPolicies(b *testing.B) {
	var lastGeo float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5a(experiments.Quick(int64(i + 3)))
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range res.Series {
			if s.Name == "Geomancy dynamic" {
				lastGeo = s.Mean
			}
		}
	}
	b.ReportMetric(lastGeo/1e9, "GB/s")
}

// BenchmarkFig5bStaticPolicies runs the static-placement comparison.
func BenchmarkFig5bStaticPolicies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5b(experiments.Quick(int64(i + 4)))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Series) != 3 {
			b.Fatalf("%d series", len(res.Series))
		}
	}
}

// BenchmarkTable4SingleMount sweeps the all-on-one-mount placements.
func BenchmarkTable4SingleMount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table4(experiments.Quick(int64(i + 5)))
		if err != nil {
			b.Fatal(err)
		}
		if res.Best().Name == "" {
			b.Fatal("no best mount")
		}
	}
}

// BenchmarkFig6Adaptation runs the dual-workload interference scenario.
func BenchmarkFig6Adaptation(b *testing.B) {
	var recovered float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(experiments.Quick(int64(i + 6)))
		if err != nil {
			b.Fatal(err)
		}
		recovered = res.RecoveredMean
	}
	b.ReportMetric(recovered/1e9, "GB/s")
}

// BenchmarkOverheadTrain measures model 1 training time (§VIII) on the
// six-feature telemetry; see BenchmarkOverheadPredict for the inference
// half of the overhead study.
func BenchmarkOverheadTrain(b *testing.B) {
	opts := experiments.Quick(7)
	gen := trace.NewGenerator(trace.GeneratorConfig{Seed: 7, Records: opts.TraceRecords})
	recs := gen.Generate(opts.TraceRecords)
	ds := mustEOSDataset(b, recs)
	train, _, _ := ds.Split()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		net := nn.MustBuildModel(1, 6, rng)
		if _, err := net.Fit(train, nn.FitConfig{Epochs: 3, BatchSize: 32, Optimizer: &nn.SGD{LR: 0.05}, Rng: rng}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOverheadPredict measures single-prediction latency (§VIII:
// ≤ ~55 ms on the paper's hardware; small dense nets are microseconds in
// pure Go).
func BenchmarkOverheadPredict(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	net := nn.MustBuildModel(1, 6, rng)
	row := []float64{0.5, 0.1, 0.9, 0.9, 0.3, 0.6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.PredictOne([][]float64{row})
	}
}

func mustEOSDataset(b *testing.B, recs []trace.EOSRecord) *nn.Dataset {
	b.Helper()
	rows := make([][]float64, len(recs))
	targets := make([]float64, len(recs))
	for i := range recs {
		rows[i] = recs[i].ChosenFeatures()
		targets[i] = recs[i].Throughput()
	}
	targets = features.MovingAverage(targets, 8)
	var fs features.MinMaxScaler
	x := fs.FitTransform(mat.FromRows(rows))
	var ts features.ScalarScaler
	ts.Fit(targets)
	return nn.NewDataset(x, ts.TransformAll(targets))
}

// --- Scoring and GEMM hot-path benches ---

// scoringLoop builds a trained engine over a warmed-up testbed: the
// candidate-scoring benchmark's fixture.
func scoringLoop(tb testing.TB) (*core.Loop, []core.FileMeta, func()) {
	tb.Helper()
	const seed = 21
	cluster := storagesim.NewBluesky(seed)
	files := trace.BelleFileSet(seed)
	runner := workload.NewRunner(cluster, files, 1, seed)
	if err := runner.SpreadEvenly(cluster.DeviceNames()); err != nil {
		tb.Fatal(err)
	}
	db, err := replaydb.Open(replaydb.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	loop, err := core.NewNamedLoop(db, db, cluster, runner, "geomancy", quickEngineCfg(seed))
	if err != nil {
		db.Close()
		tb.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		if _, err := loop.RunOnceContext(context.Background()); err != nil {
			db.Close()
			tb.Fatal(err)
		}
	}
	if _, err := loop.Engine.TrainContext(context.Background()); err != nil {
		db.Close()
		tb.Fatal(err)
	}
	layout := cluster.Layout()
	metas := make([]core.FileMeta, 0, len(files))
	for _, f := range files {
		metas = append(metas, core.FileMeta{ID: f.ID, Path: f.Path, Size: f.Size, Device: layout[f.ID]})
	}
	return loop, metas, func() { db.Close() }
}

// BenchmarkScoringProposeLayout measures the engine's decision hot path:
// one full candidate-scoring pass (len(files)×len(devices) batched
// inferences) plus Action Checker validation and layout assembly.
func BenchmarkScoringProposeLayout(b *testing.B) {
	loop, metas, closeDB := scoringLoop(b)
	defer closeDB()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := loop.Engine.ProposeLayoutContext(context.Background(), metas); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScoringExhaustive2k measures the exhaustive O(F·D) decision
// pass at warehouse scale: 2048 files × 64 devices, every candidate
// re-scored each cycle. The TopK=0 counterpart of BenchmarkScoringTopK.
func BenchmarkScoringExhaustive2k(b *testing.B) {
	w := newWarehouse(b, 2048, 64, 0, 0)
	proposeWarehouse(b, w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proposeWarehouse(b, w)
	}
}

// BenchmarkScoringTopK measures the pruned decision pass over the same
// 2048×64 population: TopK=2 per class, a quarter of the files dirty per
// cycle, full rescan every 16th decision folded into the mean. See
// TestTopKSpeedup for the asserted ≥5× ratio against the exhaustive pass.
func BenchmarkScoringTopK(b *testing.B) {
	w := newWarehouse(b, 2048, 64, 2, 16)
	proposeWarehouse(b, w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proposeWarehouse(b, w)
	}
}

// shardedScoringFixture builds a warehouse-scale sharded coordinator:
// nDev synthetic devices across eight hardware classes partitioned into
// nShards device groups, nFiles files with seeded telemetry, and the
// global engine trained once. The returned dirty function mirrors the
// warehouseFixture's steady-state telemetry churn.
func shardedScoringFixture(tb testing.TB, nFiles, nDev, nShards int) (*core.Sharded, []core.FileMeta, func()) {
	tb.Helper()
	profiles := make([]storagesim.DeviceProfile, nDev)
	speeds := make([]float64, nDev)
	for i := range profiles {
		class := i % 8
		speeds[i] = float64(8-class)*1e9 + float64(i/8)*3e7
		profiles[i] = storagesim.DeviceProfile{
			Name:     fmt.Sprintf("dev%03d", i),
			Class:    fmt.Sprintf("class%d", class),
			ReadBW:   speeds[i],
			WriteBW:  speeds[i],
			Capacity: 1e13,
		}
	}
	cluster, err := storagesim.NewCluster(profiles, storagesim.Config{Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	db, err := replaydb.Open(replaydb.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	r := rand.New(rand.NewSource(31))
	now := 0
	appendFor := func(id int64, dev int) {
		now++
		if _, err := db.AppendAccess(replaydb.AccessRecord{
			Time:       float64(now),
			FileID:     id,
			Device:     profiles[dev].Name,
			BytesRead:  int64(1e8 + r.Float64()*9e8),
			OpenTS:     int64(now),
			CloseTS:    int64(now),
			CloseTMS:   500,
			Throughput: speeds[dev] * (0.7 + 0.6*r.Float64()),
		}); err != nil {
			tb.Fatal(err)
		}
	}
	files := make([]core.FileMeta, nFiles)
	for i := range files {
		id := int64(i + 1)
		dev := r.Intn(nDev)
		files[i] = core.FileMeta{
			ID:     id,
			Path:   fmt.Sprintf("/wh/f%04d", i),
			Size:   int64(1e8 + r.Float64()*4e8),
			Device: profiles[dev].Name,
		}
		appendFor(id, dev)
	}
	cfg := core.Config{Epochs: 4, WindowX: 600, Seed: 31, Epsilon: 0.05}
	sharded, err := core.NewSharded(db, cluster, nShards, nil, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if err := sharded.Model().Retrain(context.Background()); err != nil {
		tb.Fatal(err)
	}
	dirty := func(fraction float64) {
		n := int(float64(nFiles) * fraction)
		for k := 0; k < n; k++ {
			i := r.Intn(nFiles)
			appendFor(files[i].ID, r.Intn(nDev))
		}
	}
	return sharded, files, func() { dirty(0.25) }
}

// BenchmarkScoringSharded16 measures the sharded decision cycle over the
// BenchmarkScoringExhaustive2k population split into 16 device groups:
// per-shard candidate preparation, ONE cross-shard batched inference,
// concurrent ε-greedy selection, and the escalation merge. See
// TestShardedSpeedup (internal/core) for the asserted ≥4× ratio against
// the unsharded pass at 4096×256.
func BenchmarkScoringSharded16(b *testing.B) {
	sharded, files, dirty := shardedScoringFixture(b, 2048, 64, 16)
	ctx := context.Background()
	if _, _, err := sharded.DecideLayout(ctx, files); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dirty()
		if _, _, err := sharded.DecideLayout(ctx, files); err != nil {
			b.Fatal(err)
		}
	}
}

// gemmFixture builds a GEMM triple shaped like batched candidate scoring:
// (files×devices) stacked feature rows through a hidden layer.
func gemmFixture(rows, inner, cols int) (dst, a, bm *mat.Matrix) {
	rng := rand.New(rand.NewSource(3))
	a = mat.New(rows, inner)
	bm = mat.New(inner, cols)
	for i := range a.Data {
		a.Data[i] = rng.Float64()
	}
	for i := range bm.Data {
		bm.Data[i] = rng.Float64()
	}
	return mat.New(rows, cols), a, bm
}

// BenchmarkScoringGEMM measures the serial matrix multiply underneath
// every inference batch (144 candidate rows through a 64-wide layer).
func BenchmarkScoringGEMM(b *testing.B) {
	dst, x, w := gemmFixture(144, 64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.MulTo(dst, x, w)
	}
}

// BenchmarkScoringGEMMParallel is the row-sharded variant the engine uses
// with a worker pool.
func BenchmarkScoringGEMMParallel(b *testing.B) {
	dst, x, w := gemmFixture(144, 64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.ParallelMulTo(dst, x, w, 4)
	}
}

// --- Ablation benches (DESIGN.md §Key design decisions) ---

// ablationLoop runs a small closed loop with the given engine config and
// returns the mean throughput achieved.
func ablationLoop(b *testing.B, seed int64, cfg core.Config) float64 {
	b.Helper()
	cluster := storagesim.NewBluesky(seed)
	files := trace.BelleFileSet(seed)
	runner := workload.NewRunner(cluster, files, 1, seed)
	if err := runner.SpreadEvenly(cluster.DeviceNames()); err != nil {
		b.Fatal(err)
	}
	db, err := replaydb.Open(replaydb.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	loop, err := core.NewNamedLoop(db, db, cluster, runner, "geomancy", cfg)
	if err != nil {
		b.Fatal(err)
	}
	var sum float64
	var n int64
	loop.Observer = func(res storagesim.AccessResult, wl, run int) {
		sum += res.Throughput
		n++
	}
	for r := 0; r < 10; r++ {
		if _, err := loop.RunOnceContext(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	if n == 0 {
		b.Fatal("no accesses")
	}
	return sum / float64(n)
}

func quickEngineCfg(seed int64) core.Config {
	return core.Config{Epochs: 10, WindowX: 600, CooldownRuns: 2, Seed: seed}
}

// BenchmarkAblationRecurrent compares the deployed dense model 1 against
// the recurrent runner-up model 18 (§V-G's central trade-off).
func BenchmarkAblationRecurrent(b *testing.B) {
	for _, m := range []struct {
		name  string
		model int
	}{{"model1-dense", 1}, {"model18-rnn", 18}} {
		b.Run(m.name, func(b *testing.B) {
			var tp float64
			for i := 0; i < b.N; i++ {
				cfg := quickEngineCfg(int64(i + 1))
				cfg.ModelNumber = m.model
				tp = ablationLoop(b, int64(i+1), cfg)
			}
			b.ReportMetric(tp/1e9, "GB/s")
		})
	}
}

// BenchmarkAblationOptimizer reproduces the paper's SGD-vs-Adam choice.
func BenchmarkAblationOptimizer(b *testing.B) {
	for _, opt := range []string{"sgd", "adam"} {
		b.Run(opt, func(b *testing.B) {
			var tp float64
			for i := 0; i < b.N; i++ {
				cfg := quickEngineCfg(int64(i + 1))
				cfg.Optimizer = opt
				tp = ablationLoop(b, int64(i+1), cfg)
			}
			b.ReportMetric(tp/1e9, "GB/s")
		})
	}
}

// BenchmarkAblationEpsilon sweeps the exploration rate around the paper's
// 10%.
func BenchmarkAblationEpsilon(b *testing.B) {
	for _, e := range []struct {
		name string
		eps  float64
	}{{"eps0", 1e-9}, {"eps0.1", 0.1}, {"eps0.3", 0.3}} {
		b.Run(e.name, func(b *testing.B) {
			var tp float64
			for i := 0; i < b.N; i++ {
				cfg := quickEngineCfg(int64(i + 1))
				cfg.Epsilon = e.eps
				tp = ablationLoop(b, int64(i+1), cfg)
			}
			b.ReportMetric(tp/1e9, "GB/s")
		})
	}
}

// BenchmarkAblationCooldown sweeps the movement cadence around the
// paper's every-5-runs setting.
func BenchmarkAblationCooldown(b *testing.B) {
	for _, c := range []struct {
		name string
		runs int
	}{{"cooldown1", 1}, {"cooldown5", 5}, {"cooldown10", 10}} {
		b.Run(c.name, func(b *testing.B) {
			var tp float64
			for i := 0; i < b.N; i++ {
				cfg := quickEngineCfg(int64(i + 1))
				cfg.CooldownRuns = c.runs
				tp = ablationLoop(b, int64(i+1), cfg)
			}
			b.ReportMetric(tp/1e9, "GB/s")
		})
	}
}

// BenchmarkAblationSmoothing compares moving-average smoothing (the
// paper's choice) against cumulative average and no smoothing (§V-E).
func BenchmarkAblationSmoothing(b *testing.B) {
	for _, s := range []struct {
		name   string
		window int
	}{{"moving-average", 8}, {"cumulative", -1}, {"none", 1}} {
		b.Run(s.name, func(b *testing.B) {
			var tp float64
			for i := 0; i < b.N; i++ {
				cfg := quickEngineCfg(int64(i + 1))
				cfg.SmoothWindow = s.window
				tp = ablationLoop(b, int64(i+1), cfg)
			}
			b.ReportMetric(tp/1e9, "GB/s")
		})
	}
}
