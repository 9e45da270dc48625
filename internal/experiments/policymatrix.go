package experiments

import (
	"fmt"

	"geomancy/internal/core"
	"geomancy/internal/scenario"
)

// Column labels of the learned family in the policy matrix.
const (
	// GeomancyName is the engine's column label in the policy matrix.
	GeomancyName = "Geomancy dynamic"
	// OnlineName labels the incremental-learning variant.
	OnlineName = "online-geomancy"
	// TieredName labels the device-class-gated variant.
	TieredName = "tiered-geomancy"
	// ShardedName labels the sharded-coordinator variant
	// (core.ShardedPolicyName run at matrixShards device groups).
	ShardedName = core.ShardedPolicyName
)

// PolicyMatrixResult is the per-scenario policy comparison: mean
// throughput of every placement policy on every workload scenario, with
// the winner per scenario and the learned family's win/loss tally. The
// matrix is the paper's Fig. 5 comparison swept across the workload plane
// — it answers where the learned policies' advantage holds and where a
// simple heuristic matches it.
type PolicyMatrixResult struct {
	// Scenarios are the row labels, in the order run.
	Scenarios []string
	// Policies are the column labels: baselines first, then the learned
	// family with GeomancyName always last.
	Policies []string
	// Mean[i][j] is policy j's mean per-access throughput (bytes/s) on
	// scenario i.
	Mean [][]float64
	// Winner[i] is the policy with the highest mean on scenario i.
	Winner []string
	// GeomancyWins counts scenarios where a learned-family column
	// (geomancy, sharded, online, or tiered) has the strictly highest
	// mean;
	// GeomancyLosses counts the rest.
	GeomancyWins, GeomancyLosses int
	// Gain[i] is classic Geomancy's percentage gain on scenario i over
	// the best baseline (negative where a baseline wins).
	Gain []float64
}

// matrixColumn pairs one column label with its policy builder.
type matrixColumn struct {
	name  string
	build policyBuilder
}

// matrixShards is the sharded column's partition width: Bluesky's six
// mounts split into two device groups of three.
const matrixShards = 2

// matrixColumns returns the full column set of one scenario row, every
// column built by catalogue key: baselines first (stochastic ones on
// fresh streams the catalogue derives from the options seed, so every
// cell is independent and the whole matrix is a pure function of the
// options), then the learned family on the experiment engine
// configuration, with classic Geomancy last.
func matrixColumns(opts Options) []matrixColumn {
	base, eng := core.Config{Seed: opts.Seed}, engineConfig(opts)
	return []matrixColumn{
		{"LRU", namedBuilder("lru", 0, base)},
		{"MRU", namedBuilder("mru", 0, base)},
		{"LFU", namedBuilder("lfu", 0, base)},
		{"LFU (capacity-weighted)", namedBuilder("lfu-weighted", 0, base)},
		{"random dynamic", namedBuilder("random-dynamic", 0, base)},
		{"random static", namedBuilder("random-static", 0, base)},
		{TieredName, namedBuilder("tiered-geomancy", 0, eng)},
		{OnlineName, namedBuilder("online-geomancy", 0, eng)},
		{ShardedName, namedBuilder("geomancy", matrixShards, eng)},
		{GeomancyName, namedBuilder("geomancy", 0, eng)},
	}
}

// learnedColumns is the number of learned-family columns at the tail of
// the matrix (tiered, online, sharded, geomancy).
const learnedColumns = 4

// PolicyMatrix runs every named scenario under every baseline policy and
// the four learned variants, all through the one generic runner
// (runScenarioPolicy). A nil scenarios slice selects the full catalogue.
// Each cell runs on a fresh testbed with the same seed, so columns of a
// row are comparable and the result is deterministic: equal options yield
// an identical matrix.
func PolicyMatrix(opts Options, scenarios []string) (*PolicyMatrixResult, error) {
	opts = opts.withDefaults()
	if scenarios == nil {
		scenarios = scenario.Names()
	}
	res := &PolicyMatrixResult{Scenarios: scenarios}
	for _, col := range matrixColumns(opts) {
		res.Policies = append(res.Policies, col.name)
	}
	baselines := len(res.Policies) - learnedColumns

	for _, name := range scenarios {
		row := make([]float64, 0, len(res.Policies))
		// Stochastic baseline columns carry per-cell state (RNG position,
		// one-shot flags), so the column set is rebuilt per scenario.
		for _, col := range matrixColumns(opts) {
			s, _, tb, err := runScenarioPolicy(name, col.build, opts)
			if err != nil {
				return nil, fmt.Errorf("experiments: scenario %s under %s: %w", name, col.name, err)
			}
			tb.db.Close()
			row = append(row, s.Mean)
		}
		res.Mean = append(res.Mean, row)

		best, bestBaseline := 0, 0.0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
			if j < baselines && v > bestBaseline {
				bestBaseline = v
			}
		}
		res.Winner = append(res.Winner, res.Policies[best])
		if best >= baselines {
			res.GeomancyWins++
		} else {
			res.GeomancyLosses++
		}
		gain := 0.0
		if bestBaseline > 0 {
			gain = (row[len(row)-1]/bestBaseline - 1) * 100
		}
		res.Gain = append(res.Gain, gain)
	}
	return res, nil
}

// Table renders the matrix: one row per scenario, one column per policy
// (winner cell marked with *), plus classic Geomancy's gain over the best
// baseline and the learned family's win/loss tally in the caption.
func (r *PolicyMatrixResult) Table() *Table {
	t := &Table{
		Title:  "Policy matrix: mean throughput per scenario (winner marked *)",
		Header: append(append([]string{"scenario"}, r.Policies...), "Geomancy vs best baseline"),
	}
	for i, name := range r.Scenarios {
		row := []string{name}
		for j, v := range r.Mean[i] {
			cell := GBps(v)
			if r.Policies[j] == r.Winner[i] {
				cell += " *"
			}
			row = append(row, cell)
		}
		row = append(row, fmt.Sprintf("%+.1f%%", r.Gain[i]))
		t.Rows = append(t.Rows, row)
	}
	t.Caption = fmt.Sprintf("learned family wins %d of %d scenarios", r.GeomancyWins, r.GeomancyWins+r.GeomancyLosses)
	return t
}
