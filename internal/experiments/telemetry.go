package experiments

import (
	"context"
	"fmt"
	"geomancy/internal/rng"

	"geomancy/internal/core"
	"geomancy/internal/features"
	"geomancy/internal/nn"
	"geomancy/internal/policy"
	"geomancy/internal/replaydb"
	"geomancy/internal/scenario"
	"geomancy/internal/storagesim"
	"geomancy/internal/trace"
)

// testbed bundles one fresh simulated system.
type testbed struct {
	cluster *storagesim.Cluster
	files   []trace.BelleFile
	runner  scenario.Workload
	db      *replaydb.DB
}

// newTestbed builds a Bluesky cluster with the BELLE II working set spread
// evenly — the starting state of the paper's experiments.
func newTestbed(seed int64) (*testbed, error) {
	return newScenarioTestbed("belle", seed)
}

// newScenarioTestbed builds a Bluesky cluster driven by the named
// scenario from the workload plane, its population spread evenly.
func newScenarioTestbed(scenarioName string, seed int64) (*testbed, error) {
	cluster := storagesim.NewBluesky(seed)
	runner, err := scenario.New(scenarioName, cluster, nil, seed)
	if err != nil {
		return nil, err
	}
	if err := runner.SpreadEvenly(cluster.DeviceNames()); err != nil {
		return nil, err
	}
	db, err := replaydb.Open(replaydb.Options{})
	if err != nil {
		return nil, err
	}
	return &testbed{
		cluster: cluster,
		files:   runner.Files(),
		runner:  runner,
		db:      db,
	}, nil
}

// observe records one access into the db.
func (tb *testbed) observe(res storagesim.AccessResult, wl, run int) error {
	_, err := tb.db.AppendAccess(replaydb.FromAccess(res, wl, run))
	return err
}

// bootstrap runs warm-up workload runs with occasional random shuffles so
// every device accumulates telemetry, mirroring the paper's pre-experiment
// capture of 10,000 accesses per file set.
func (tb *testbed) bootstrap(runs int, seed int64) error {
	shuffler := &policy.RandomDynamic{Rng: rng.New(seed)}
	for r := 0; r < runs; r++ {
		var obsErr error
		if _, err := tb.runner.RunOnce(func(res storagesim.AccessResult, wl, run int) {
			if err := tb.observe(res, wl, run); err != nil && obsErr == nil {
				obsErr = err
			}
		}); err != nil {
			return err
		}
		if obsErr != nil {
			return obsErr
		}
		layout, err := shuffler.Propose(context.Background(), core.PolicyState(tb.db, tb.cluster, tb.files))
		if err != nil {
			return err
		}
		if layout != nil {
			if _, err := tb.runner.ApplyLayout(layout); err != nil {
				return err
			}
		}
	}
	return nil
}

// bootstrapUntil keeps running bootstrap rounds until the named device has
// accumulated at least target telemetry records (bounded by a generous run
// cap so a misconfigured target cannot spin forever).
func (tb *testbed) bootstrapUntil(device string, target int, opts Options, seed int64) error {
	const roundRuns = 5
	maxRounds := 200
	for round := 0; round < maxRounds; round++ {
		if len(tb.db.RecentByDevice(device, target)) >= target {
			return nil
		}
		if err := tb.bootstrap(roundRuns, seed+int64(round)); err != nil {
			return err
		}
	}
	if got := len(tb.db.RecentByDevice(device, target)); got < target/4 {
		return fmt.Errorf("experiments: device %s accumulated only %d of %d records", device, got, target)
	}
	return nil
}

// deviceDataset assembles the normalized, smoothed training dataset of one
// mount's telemetry — the per-mount modeling task of Tables II and III.
// The returned scaler denormalizes targets back to bytes/second so error
// percentages are computed on the real throughput scale (as the paper
// reports them), not on normalized values that pass near zero.
func deviceDataset(db *replaydb.DB, device string, devIndex map[string]int, windowX, smooth int) (*nn.Dataset, *features.ScalarScaler, error) {
	// Raw throughput is smoothed per data ID (§V-E), then modeled in log
	// space (see core.EncodeTarget).
	x, targets := core.TrainingSet(db, []string{device}, devIndex, windowX,
		func(rec *replaydb.AccessRecord) float64 { return rec.Throughput }, smooth)
	if x.Rows < 20 {
		return nil, nil, fmt.Errorf("experiments: only %d records for device %s", x.Rows, device)
	}
	for i := range targets {
		targets[i] = core.EncodeTarget(targets[i])
	}
	var fs features.MinMaxScaler
	x = fs.FitTransform(x)
	ts := &features.ScalarScaler{}
	ts.Fit(targets)
	return nn.NewDataset(x, ts.TransformAll(targets)), ts, nil
}

// denormMetrics evaluates predictions — Predict's output, whose first
// anchor is test row first — against targets on the original throughput
// scale.
func denormMetrics(preds []float64, test *nn.Dataset, first int, scaler *features.ScalarScaler) nn.Metrics {
	if len(preds) == 0 {
		return nn.Metrics{Diverged: true}
	}
	targets := make([]float64, len(preds))
	out := make([]float64, len(preds))
	for i := range preds {
		targets[i] = core.DecodeTarget(scaler.Inverse(test.Y[first+i]))
		p := preds[i]
		if p < 0 {
			p = 0
		} else if p > 1 {
			p = 1
		}
		out[i] = core.DecodeTarget(scaler.Inverse(p))
	}
	return nn.EvaluatePredictions(out, targets)
}

// deviceIndex maps device names to their profile-order index.
func deviceIndex(names []string) map[string]int {
	idx := make(map[string]int, len(names))
	for i, n := range names {
		idx[n] = i
	}
	return idx
}
