package experiments

import (
	"context"
	"fmt"

	"geomancy/internal/agents"
	"geomancy/internal/core"
	"geomancy/internal/policy"
	"geomancy/internal/rng"
	"geomancy/internal/storagesim"
)

// policyBuilder constructs the policy (and, for the learned family, the
// engine bridge behind it) over a bootstrapped testbed. Baselines carry a
// nil model.
type policyBuilder func(tb *testbed) (policy.Policy, *core.EngineModel, error)

// staticBuilder wraps a ready-made policy instance.
func staticBuilder(p policy.Policy) policyBuilder {
	return func(*testbed) (policy.Policy, *core.EngineModel, error) { return p, nil, nil }
}

// tbEngineModel builds a DRL engine over the testbed's ReplayDB and
// bridges it to the policy plane.
func tbEngineModel(tb *testbed, opts Options) (*core.EngineModel, error) {
	engine, err := core.NewEngine(tb.db, tb.cluster.DeviceNames(), engineConfig(opts))
	if err != nil {
		return nil, err
	}
	return engine.NewModel(tb.cluster), nil
}

// geomancyBuilder is the paper's closed loop: full retrain every decision.
func geomancyBuilder(opts Options) policyBuilder {
	return func(tb *testbed) (policy.Policy, *core.EngineModel, error) {
		m, err := tbEngineModel(tb, opts)
		if err != nil {
			return nil, nil, err
		}
		return &policy.Geomancy{Model: m}, m, nil
	}
}

// onlineBuilder is the incremental-learning variant: minibatch updates
// between full retrains.
func onlineBuilder(opts Options) policyBuilder {
	return func(tb *testbed) (policy.Policy, *core.EngineModel, error) {
		m, err := tbEngineModel(tb, opts)
		if err != nil {
			return nil, nil, err
		}
		return &policy.Online{Model: m}, m, nil
	}
}

// tieredBuilder is the device-class-gated variant: only cross-tier
// promote/demote moves survive.
func tieredBuilder(opts Options) policyBuilder {
	return func(tb *testbed) (policy.Policy, *core.EngineModel, error) {
		m, err := tbEngineModel(tb, opts)
		if err != nil {
			return nil, nil, err
		}
		return &policy.Tiered{Model: m}, m, nil
	}
}

// matrixShards is the sharded column's partition width: Bluesky's six
// mounts split into two device groups of three.
const matrixShards = 2

// shardedBuilder is the sharded-coordinator variant: the testbed's
// devices partition into matrixShards groups, each deciding over its own
// subset with one batched inference per cycle and cross-shard
// escalation (core.Sharded).
func shardedBuilder(opts Options) policyBuilder {
	return func(tb *testbed) (policy.Policy, *core.EngineModel, error) {
		s, err := core.NewSharded(tb.db, tb.cluster, matrixShards, nil, engineConfig(opts))
		if err != nil {
			return nil, nil, err
		}
		return s, s.Model(), nil
	}
}

// runScenarioPolicy executes the paper's experiment-1 protocol for one
// policy on one scenario: bootstrap the testbed, take an initial placement
// decision at measurement start, then run the workload with the policy
// re-deciding every CooldownRuns runs. Every policy — baseline heuristic
// or learned — goes through this one loop, so columns of a comparison
// differ only in the policy.
func runScenarioPolicy(scenarioName string, build policyBuilder, opts Options) (Series, *core.Loop, *testbed, error) {
	tb, err := newScenarioTestbed(scenarioName, opts.Seed)
	if err != nil {
		return Series{}, nil, nil, err
	}
	if err := tb.bootstrap(opts.BootstrapRuns, opts.Seed+1); err != nil {
		return Series{}, nil, nil, err
	}
	p, model, err := build(tb)
	if err != nil {
		return Series{}, nil, nil, err
	}
	ctx := context.Background()
	loop := core.NewPolicyLoop(tb.db, tb.cluster, tb.runner, p, 0)
	loop.SetModel(model)
	loop.SeedHeat(tb.lastAccess, tb.accesses)
	// Initial placement from the bootstrap telemetry: every policy acts at
	// measurement start (the paper's engine has its 10,000-access warm-up
	// behind it), then keeps adapting on the cooldown schedule.
	if err := loop.Decide(ctx); err != nil {
		return Series{}, nil, nil, err
	}
	sb := newSeriesBuilder(opts.SeriesWindow)
	loop.Observer = func(res storagesim.AccessResult, wl, run int) {
		sb.add(res.Throughput, res.End-res.Start)
	}
	for r := 0; r < opts.Runs; r++ {
		if _, err := loop.RunOnceContext(ctx); err != nil {
			return Series{}, nil, nil, err
		}
		if (r+1)%opts.CooldownRuns == 0 {
			if err := loop.Decide(ctx); err != nil {
				return Series{}, nil, nil, err
			}
		}
	}
	s := sb.finish(p.Name())
	for _, mv := range loop.Movements() {
		if mv.Moved > 0 {
			s.Movements = append(s.Movements, MovementBar{AccessIndex: mv.AccessIndex, Moved: mv.Moved})
		}
	}
	return s, loop, tb, nil
}

// runPolicy is runScenarioPolicy for a ready-made policy on the paper's
// BELLE II scenario.
func runPolicy(p policy.Policy, opts Options) (Series, *testbed, error) {
	s, _, tb, err := runScenarioPolicy("belle", staticBuilder(p), opts)
	return s, tb, err
}

// engineConfig derives the Geomancy engine settings from the options.
func engineConfig(opts Options) core.Config {
	return core.Config{
		Epochs:       opts.Epochs,
		WindowX:      opts.WindowX,
		CooldownRuns: opts.CooldownRuns,
		Seed:         opts.Seed + 77,
		Parallelism:  opts.Parallelism,
	}
}

// runGeomancyDynamic executes the full closed loop and returns its series
// plus the loop and testbed for utilization accounting.
func runGeomancyDynamic(opts Options) (Series, *core.Loop, *testbed, error) {
	return runScenarioPolicy("belle", geomancyBuilder(opts), opts)
}

// geomancyStaticLayout trains an engine on a bootstrap ReplayDB (the
// paper trains it on ~10,000 metrics from the dynamic-random experiment)
// and returns its single greedy layout proposal.
func geomancyStaticLayout(opts Options) (map[int64]string, error) {
	tb, err := newTestbed(opts.Seed)
	if err != nil {
		return nil, err
	}
	defer tb.db.Close()
	if err := tb.bootstrap(opts.BootstrapRuns+opts.CooldownRuns, opts.Seed+1); err != nil {
		return nil, err
	}
	cfg := engineConfig(opts)
	// One-shot static placement is pure exploitation: effectively no
	// exploration (exactly 0 would select the 0.1 default).
	cfg.Epsilon = 1e-9
	engine, err := core.NewEngine(tb.db, tb.cluster.DeviceNames(), cfg)
	if err != nil {
		return nil, err
	}
	if _, err := engine.TrainContext(context.Background()); err != nil {
		return nil, err
	}
	layout := tb.cluster.Layout()
	metas := make([]core.FileMeta, 0, len(tb.files))
	for _, f := range tb.files {
		metas = append(metas, core.FileMeta{ID: f.ID, Path: f.Path, Size: f.Size, Device: layout[f.ID]})
	}
	checker := agents.NewActionChecker(rng.New(opts.Seed+5), tb.cluster.DeviceNames())
	proposed, _, err := engine.ProposeLayoutContext(context.Background(), metas, checker, agents.ClusterValidator(tb.cluster))
	return proposed, err
}

// ComparisonResult bundles the Fig. 5 series and the headline summary.
type ComparisonResult struct {
	Series []Series
	// GeomancyGain maps each base case to Geomancy's mean-throughput
	// gain over it, in percent (the paper's 11–30% numbers).
	GeomancyGain map[string]float64
}

// gains computes Geomancy's percentage gain over every other series.
func gains(series []Series) map[string]float64 {
	var geo *Series
	for i := range series {
		if series[i].Name == "Geomancy dynamic" {
			geo = &series[i]
		}
	}
	out := make(map[string]float64)
	if geo == nil {
		return out
	}
	for i := range series {
		if series[i].Name == geo.Name || series[i].Mean == 0 {
			continue
		}
		out[series[i].Name] = (geo.Mean/series[i].Mean - 1) * 100
	}
	return out
}

// Fig5a reproduces the dynamic-policy comparison: Geomancy dynamic vs
// LRU, MRU, LFU and random dynamic.
func Fig5a(opts Options) (*ComparisonResult, error) {
	opts = opts.withDefaults()
	res := &ComparisonResult{}

	basePolicies := []policy.Policy{
		policy.LRU{},
		policy.MRU{},
		policy.LFU{},
		&policy.RandomDynamic{Rng: rng.New(opts.Seed + 2)},
	}
	for _, p := range basePolicies {
		s, tb, err := runPolicy(p, opts)
		if err != nil {
			return nil, fmt.Errorf("experiments: policy %s: %w", p.Name(), err)
		}
		tb.db.Close()
		res.Series = append(res.Series, s)
	}
	geo, _, tb, err := runGeomancyDynamic(opts)
	if err != nil {
		return nil, fmt.Errorf("experiments: Geomancy dynamic: %w", err)
	}
	tb.db.Close()
	res.Series = append(res.Series, geo)
	res.GeomancyGain = gains(res.Series)
	return res, nil
}

// Fig5b reproduces the static-policy comparison: Geomancy dynamic vs
// random static and Geomancy static.
func Fig5b(opts Options) (*ComparisonResult, error) {
	opts = opts.withDefaults()
	res := &ComparisonResult{}

	rs := &policy.RandomStatic{Rng: rng.New(opts.Seed + 3)}
	s, tb, err := runPolicy(rs, opts)
	if err != nil {
		return nil, fmt.Errorf("experiments: random static: %w", err)
	}
	tb.db.Close()
	res.Series = append(res.Series, s)

	staticLayout, err := geomancyStaticLayout(opts)
	if err != nil {
		return nil, fmt.Errorf("experiments: Geomancy static layout: %w", err)
	}
	gs := &policy.Static{Desc: "Geomancy static", Target: staticLayout}
	s, tb, err = runPolicy(gs, opts)
	if err != nil {
		return nil, fmt.Errorf("experiments: Geomancy static: %w", err)
	}
	tb.db.Close()
	res.Series = append(res.Series, s)

	geo, _, tb, err := runGeomancyDynamic(opts)
	if err != nil {
		return nil, fmt.Errorf("experiments: Geomancy dynamic: %w", err)
	}
	tb.db.Close()
	res.Series = append(res.Series, geo)
	res.GeomancyGain = gains(res.Series)
	return res, nil
}

// SummaryTable renders the mean-throughput comparison.
func (r *ComparisonResult) SummaryTable(title string) *Table {
	t := &Table{
		Title:  title,
		Header: []string{"placement", "mean throughput", "σ", "accesses", "p50/p95/p99 lat (ms)", "Geomancy gain"},
	}
	for _, s := range r.Series {
		gain := ""
		if g, ok := r.GeomancyGain[s.Name]; ok {
			gain = fmt.Sprintf("%+.1f%%", g)
		}
		t.Rows = append(t.Rows, []string{
			s.Name, GBps(s.Mean), GBps(s.Std), fmt.Sprintf("%d", s.Accesses),
			fmt.Sprintf("%.1f/%.1f/%.1f", s.LatencyP50*1e3, s.LatencyP95*1e3, s.LatencyP99*1e3),
			gain,
		})
	}
	return t
}

// WeightedPolicies is an extension experiment for §VI's remark that the
// base cases could "spread files based upon the capacities of the storage
// devices": LFU with even groups vs capacity-weighted LFU vs Geomancy.
func WeightedPolicies(opts Options) (*ComparisonResult, error) {
	opts = opts.withDefaults()
	res := &ComparisonResult{}
	for _, p := range []policy.Policy{
		policy.LFU{},
		policy.Weighted{Base: policy.LFU{}},
	} {
		s, tb, err := runPolicy(p, opts)
		if err != nil {
			return nil, fmt.Errorf("experiments: policy %s: %w", p.Name(), err)
		}
		tb.db.Close()
		res.Series = append(res.Series, s)
	}
	geo, _, tb, err := runGeomancyDynamic(opts)
	if err != nil {
		return nil, err
	}
	tb.db.Close()
	res.Series = append(res.Series, geo)
	res.GeomancyGain = gains(res.Series)
	return res, nil
}
