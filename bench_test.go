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
		if len(res.Rows) == 0 {
			b.Fatal("no mounts swept")
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
