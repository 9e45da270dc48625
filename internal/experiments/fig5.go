package experiments

import (
	"context"
	"fmt"

	"geomancy/internal/core"
	"geomancy/internal/policy"
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

// namedBuilder builds the named catalogue policy over the testbed at the
// given shard width (0 = unsharded) through core.BuildPolicy: learned
// names get an engine over the testbed's ReplayDB configured by cfg,
// baselines only read cfg.Seed.
func namedBuilder(name string, shards int, cfg core.Config) policyBuilder {
	return func(tb *testbed) (policy.Policy, *core.EngineModel, error) {
		return core.BuildPolicy(tb.db, tb.cluster, name, shards, cfg)
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
		FixedEpochs:  opts.FixedEpochs,
		WindowX:      opts.WindowX,
		CooldownRuns: opts.CooldownRuns,
		Seed:         opts.Seed + 77,
	}
}

// runGeomancyDynamic executes the full closed loop and returns its series
// plus the loop and testbed for utilization accounting.
func runGeomancyDynamic(opts Options) (Series, *core.Loop, *testbed, error) {
	return runScenarioPolicy("belle", namedBuilder("geomancy", 0, engineConfig(opts)), opts)
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
	p, _, err := core.BuildPolicy(tb.db, tb.cluster, "geomancy", 0, cfg)
	if err != nil {
		return nil, err
	}
	return p.Propose(context.Background(), core.PolicyState(tb.db, tb.cluster, tb.files))
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

	for _, key := range []string{"lru", "mru", "lfu", "random-dynamic"} {
		s, _, tb, err := runScenarioPolicy("belle", namedBuilder(key, 0, core.Config{Seed: opts.Seed}), opts)
		if err != nil {
			return nil, fmt.Errorf("experiments: policy %s: %w", key, err)
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

	s, _, tb, err := runScenarioPolicy("belle", namedBuilder("random-static", 0, core.Config{Seed: opts.Seed}), opts)
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
		policy.LFU(),
		policy.Weighted{Base: policy.LFU()},
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
