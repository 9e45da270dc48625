package experiments

import (
	"fmt"
	"slices"

	"geomancy/internal/core"
	"geomancy/internal/scenario"
)

// Column labels of the learned family in the policy matrix.
const (
	// GeomancyName is the engine's column label in the policy matrix.
	GeomancyName = "Geomancy dynamic"
	// OnlineName labels the incremental-learning variant.
	OnlineName = "online-geomancy"
	// ShardedName labels the sharded-coordinator variant
	// (core.ShardedPolicyName run at matrixShards device groups).
	ShardedName = core.ShardedPolicyName
)

// PolicyMatrixResult is the per-scenario policy comparison over a run of
// seeds: every placement policy's mean throughput on every workload
// scenario at each seed, summarized per cell as median [q1, q3], with each
// column's paired wins against classic Geomancy, the winner per scenario
// and the learned family's win/loss tally. The matrix is the paper's
// Fig. 5 comparison swept across the workload plane — it answers where
// the learned policies' advantage holds and where a simple heuristic
// matches it — and the seed sweep says whether a margin is larger than
// the noise between seeds.
type PolicyMatrixResult struct {
	// Scenarios are the row labels, in the order run.
	Scenarios []string
	// Policies are the column labels: baselines first, then the learned
	// family with GeomancyName always last.
	Policies []string
	// Seeds are the seeds run, in order: opts.Seed, opts.Seed+1, ….
	Seeds []int64
	// Cells[i][j][s] is policy j's mean per-access throughput (bytes/s)
	// on scenario i at Seeds[s].
	Cells [][][]float64
	// Median, Q1 and Q3 summarize Cells[i][j] over the seeds, quartiles
	// by the exclusive method (see quartile).
	Median, Q1, Q3 [][]float64
	// Wins[i][j] counts the seeds at which policy j's cell beat
	// GeomancyName's on scenario i (zero in GeomancyName's own column).
	Wins [][]int
	// Winner[i] is the policy with the highest median on scenario i.
	Winner []string
	// GeomancyWins counts scenarios where a learned-family column
	// (geomancy, sharded, or online) has the strictly highest median;
	// GeomancyLosses counts the rest.
	GeomancyWins, GeomancyLosses int
	// Gain[i] is classic Geomancy's percentage gain on scenario i over
	// the best baseline, on medians (negative where a baseline wins).
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
		{OnlineName, namedBuilder("online-geomancy", 0, eng)},
		{ShardedName, namedBuilder("geomancy", matrixShards, eng)},
		{GeomancyName, namedBuilder("geomancy", 0, eng)},
	}
}

// learnedColumns is the number of learned-family columns at the tail of
// the matrix (online, sharded, geomancy).
const learnedColumns = 3

// PolicyMatrix runs every named scenario under every baseline policy and
// the three learned variants, all through the one generic runner
// (runScenarioPolicy), at each of seeds seeds from opts.Seed up. A nil
// scenarios slice selects the full catalogue. Each cell runs on a fresh
// testbed at its seed, so columns of a row at one seed are comparable,
// each seed's cells equal a one-seed matrix at that seed, and the result
// is deterministic: equal arguments yield an identical matrix.
func PolicyMatrix(opts Options, scenarios []string, seeds int) (*PolicyMatrixResult, error) {
	if seeds < 1 {
		return nil, fmt.Errorf("experiments: policy matrix over %d seeds", seeds)
	}
	opts = opts.withDefaults()
	if scenarios == nil {
		scenarios = scenario.Names()
	}
	res := &PolicyMatrixResult{Scenarios: scenarios}
	for s := range seeds {
		res.Seeds = append(res.Seeds, opts.Seed+int64(s))
	}
	for _, col := range matrixColumns(opts) {
		res.Policies = append(res.Policies, col.name)
	}
	n := len(res.Policies)
	baselines, geomancy := n-learnedColumns, n-1

	for _, name := range scenarios {
		cells := make([][]float64, n)
		for _, seed := range res.Seeds {
			at := opts
			at.Seed = seed
			// Stochastic baseline columns carry per-cell state (RNG
			// position, one-shot flags), so the column set is rebuilt per
			// scenario and seed.
			for j, col := range matrixColumns(at) {
				s, _, tb, err := runScenarioPolicy(name, col.build, at)
				if err != nil {
					return nil, fmt.Errorf("experiments: scenario %s under %s at seed %d: %w", name, col.name, seed, err)
				}
				tb.db.Close()
				cells[j] = append(cells[j], s.Mean)
			}
		}
		med, q1, q3, wins := make([]float64, n), make([]float64, n), make([]float64, n), make([]int, n)
		for j, c := range cells {
			sorted := slices.Clone(c)
			slices.Sort(sorted)
			q1[j], med[j], q3[j] = quartile(sorted, 1), quartile(sorted, 2), quartile(sorted, 3)
			for s, v := range c {
				if v > cells[geomancy][s] {
					wins[j]++
				}
			}
		}
		res.Cells = append(res.Cells, cells)
		res.Median, res.Q1, res.Q3 = append(res.Median, med), append(res.Q1, q1), append(res.Q3, q3)
		res.Wins = append(res.Wins, wins)

		best, bestBaseline := 0, 0.0
		for j, v := range med {
			if v > med[best] {
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
			gain = (med[geomancy]/bestBaseline - 1) * 100
		}
		res.Gain = append(res.Gain, gain)
	}
	return res, nil
}

// quartile returns the i-th quartile (i = 1, 2, 3) of sorted by the
// exclusive method bench/report.go's spread uses: the i·(n+1)/4-th order
// statistic, interpolated, clamped to the sample's ends. The second
// quartile is the median; one value is all three.
func quartile(sorted []float64, i int) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	j := i * (n + 1) / 4
	delta := float64(i*(n+1) - j*4)
	if j < 1 {
		j, delta = 1, 0
	}
	if j > n-1 {
		j, delta = n-1, 4
	}
	return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
}

// Table renders the matrix: one row per scenario, one column per policy.
// A cell is the median [q1, q3] in GB/s (winner marked *); a learned
// variant's cell adds its paired wins against classic Geomancy, as
// wins/seeds. The last column is classic Geomancy's gain over the best
// baseline, and the caption holds the learned family's win/loss tally.
func (r *PolicyMatrixResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Policy matrix: mean throughput per scenario, median [q1, q3] GB/s over %d seeds from %d (winner marked *)",
			len(r.Seeds), r.Seeds[0]),
		Header: append(append([]string{"scenario"}, r.Policies...), "Geomancy vs best baseline"),
	}
	baselines, geomancy := len(r.Policies)-learnedColumns, len(r.Policies)-1
	for i, name := range r.Scenarios {
		row := []string{name}
		for j, med := range r.Median[i] {
			cell := fmt.Sprintf("%.3f [%.3f, %.3f]", med/1e9, r.Q1[i][j]/1e9, r.Q3[i][j]/1e9)
			if j >= baselines && j != geomancy {
				cell += fmt.Sprintf(" %d/%d", r.Wins[i][j], len(r.Seeds))
			}
			if r.Policies[j] == r.Winner[i] {
				cell += " *"
			}
			row = append(row, cell)
		}
		row = append(row, fmt.Sprintf("%+.1f%%", r.Gain[i]))
		t.Rows = append(t.Rows, row)
	}
	t.Caption = fmt.Sprintf("learned family wins %d of %d scenarios on medians; n/%d = seeds at which a learned variant beat %s",
		r.GeomancyWins, r.GeomancyWins+r.GeomancyLosses, len(r.Seeds), GeomancyName)
	return t
}
