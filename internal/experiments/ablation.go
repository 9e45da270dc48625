package experiments

import (
	"context"
	"fmt"

	"geomancy/internal/core"
	"geomancy/internal/storagesim"
)

// AblationPoint is one configuration's outcome in an ablation sweep.
type AblationPoint struct {
	Label string
	// Mean is the mean per-access throughput achieved (bytes/s).
	Mean float64
	Std  float64
	// Moves counts file movements performed over the sweep run.
	Moves int
	// Deferred counts gap-scheduler deferrals (gap-scheduling sweep only).
	Deferred int
}

// AblationResult is a named sweep over one design decision.
type AblationResult struct {
	Name   string
	Points []AblationPoint
}

// Table renders the sweep.
func (r *AblationResult) Table() *Table {
	t := &Table{
		Title:  "Ablation — " + r.Name,
		Header: []string{"configuration", "mean throughput", "σ", "moves"},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{p.Label, GBps(p.Mean), GBps(p.Std), fmt.Sprintf("%d", p.Moves)})
	}
	return t
}

// ablationRun executes the closed loop under one engine configuration and
// returns the achieved throughput statistics.
func ablationRun(opts Options, mutate func(*core.Config), gapScheduling bool) (AblationPoint, error) {
	tb, err := newTestbed(opts.Seed)
	if err != nil {
		return AblationPoint{}, err
	}
	defer tb.db.Close()
	if err := tb.bootstrap(opts.BootstrapRuns, opts.Seed+1); err != nil {
		return AblationPoint{}, err
	}
	cfg := engineConfig(opts)
	if mutate != nil {
		mutate(&cfg)
	}
	loop, err := core.NewNamedLoop(tb.db, tb.db, tb.cluster, tb.runner, "geomancy", cfg)
	if err != nil {
		return AblationPoint{}, err
	}
	if gapScheduling {
		loop.EnableGapScheduling()
	}
	sb := newSeriesBuilder(opts.SeriesWindow)
	loop.Observer = func(res storagesim.AccessResult, wl, run int) {
		sb.add(res.Throughput, res.End-res.Start)
	}
	for r := 0; r < opts.Runs; r++ {
		if _, err := loop.RunOnceContext(context.Background()); err != nil {
			return AblationPoint{}, err
		}
	}
	s := sb.finish("")
	var moves int
	for _, mv := range loop.Movements() {
		moves += mv.Moved
	}
	return AblationPoint{Mean: s.Mean, Std: s.Std, Moves: moves, Deferred: len(loop.Deferrals())}, nil
}

// AblationEpsilon sweeps the exploration rate around the paper's 10%.
func AblationEpsilon(opts Options) (*AblationResult, error) {
	opts = opts.withDefaults()
	res := &AblationResult{Name: "exploration rate ε (paper: 0.1)"}
	for _, eps := range []float64{1e-9, 0.1, 0.3} {
		e := eps
		p, err := ablationRun(opts, func(c *core.Config) { c.Epsilon = e }, false)
		if err != nil {
			return nil, err
		}
		p.Label = fmt.Sprintf("ε = %.2g", eps)
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// AblationCooldown sweeps the movement cadence around the paper's
// every-5-runs choice ("moving files less frequently caused new placements
// to be less relevant... too often [and] the additional overhead from
// moving the files diminishes the performance increase", §VI).
func AblationCooldown(opts Options) (*AblationResult, error) {
	opts = opts.withDefaults()
	res := &AblationResult{Name: "cooldown runs between movements (paper: 5)"}
	for _, cd := range []int{1, 5, 10} {
		c := cd
		p, err := ablationRun(opts, func(cfg *core.Config) { cfg.CooldownRuns = c }, false)
		if err != nil {
			return nil, err
		}
		p.Label = fmt.Sprintf("every %d runs", cd)
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// AblationSmoothing compares the paper's moving average against the
// cumulative average it rejected and no smoothing at all (§V-E).
func AblationSmoothing(opts Options) (*AblationResult, error) {
	opts = opts.withDefaults()
	res := &AblationResult{Name: "telemetry smoothing (paper: moving average)"}
	for _, s := range []struct {
		label  string
		window int
	}{{"moving average (8)", 8}, {"cumulative average", -1}, {"none", 1}} {
		w := s.window
		p, err := ablationRun(opts, func(cfg *core.Config) { cfg.SmoothWindow = w }, false)
		if err != nil {
			return nil, err
		}
		p.Label = s.label
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// AblationOptimizer reproduces the paper's SGD-vs-Adam comparison (§V-G:
// "We tested out the Adam optimizer but it ended up giving us a higher
// mean and standard deviation of the absolute relative error").
func AblationOptimizer(opts Options) (*AblationResult, error) {
	opts = opts.withDefaults()
	res := &AblationResult{Name: "optimizer (paper: plain SGD)"}
	for _, o := range []string{"sgd", "adam"} {
		name := o
		p, err := ablationRun(opts, func(cfg *core.Config) { cfg.Optimizer = name }, false)
		if err != nil {
			return nil, err
		}
		p.Label = name
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// AblationGapScheduling measures the §X movement-scheduler extension.
func AblationGapScheduling(opts Options) (*AblationResult, error) {
	opts = opts.withDefaults()
	res := &AblationResult{Name: "gap-aware movement scheduling (§X extension)"}
	for _, g := range []struct {
		label string
		on    bool
	}{{"off (paper)", false}, {"on", true}} {
		p, err := ablationRun(opts, nil, g.on)
		if err != nil {
			return nil, err
		}
		p.Label = g.label
		if g.on {
			p.Label = fmt.Sprintf("on (%d deferrals)", p.Deferred)
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}
