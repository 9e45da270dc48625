package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"geomancy/internal/scenario"
)

// The matrix must cover the whole scenario catalogue against every
// baseline plus the engine, with a winner per scenario and a consistent
// tally.
func TestPolicyMatrixCoversCatalogue(t *testing.T) {
	res, err := PolicyMatrix(Quick(1), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := scenario.Names(); !reflect.DeepEqual(res.Scenarios, want) {
		t.Errorf("scenarios = %v, want %v", res.Scenarios, want)
	}
	if len(res.Policies) < 9 || res.Policies[len(res.Policies)-1] != GeomancyName {
		t.Errorf("policies = %v, want ≥6 baselines then the learned family ending in %q", res.Policies, GeomancyName)
	}
	n := len(res.Policies)
	if res.Policies[n-2] != ShardedName || res.Policies[n-3] != OnlineName {
		t.Errorf("learned tail = %v, want [%q %q %q]",
			res.Policies[n-3:], OnlineName, ShardedName, GeomancyName)
	}
	if len(res.Median) != len(res.Scenarios) || len(res.Winner) != len(res.Scenarios) {
		t.Fatalf("ragged result: %d scenarios, %d rows, %d winners",
			len(res.Scenarios), len(res.Median), len(res.Winner))
	}
	for i, row := range res.Median {
		if len(row) != len(res.Policies) {
			t.Fatalf("row %d has %d cells, want %d", i, len(row), len(res.Policies))
		}
		for j, v := range row {
			if v <= 0 {
				t.Errorf("scenario %s under %s: non-positive mean %v",
					res.Scenarios[i], res.Policies[j], v)
			}
		}
	}
	if res.GeomancyWins+res.GeomancyLosses != len(res.Scenarios) {
		t.Errorf("tally %d+%d does not cover %d scenarios",
			res.GeomancyWins, res.GeomancyLosses, len(res.Scenarios))
	}
	var buf bytes.Buffer
	if err := res.Table().Render(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("empty rendered table")
	}
}

// The sharded coordinator column must hold parity with classic Geomancy:
// same telemetry, same network family, only the decision plane is
// partitioned — so its mean throughput should track the unsharded
// column on every scenario, not just in aggregate.
func TestShardedPolicyMatrixParity(t *testing.T) {
	res, err := PolicyMatrix(Quick(1), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	shardedCol, geomancyCol := -1, -1
	for j, name := range res.Policies {
		switch name {
		case ShardedName:
			shardedCol = j
		case GeomancyName:
			geomancyCol = j
		}
	}
	if shardedCol < 0 || geomancyCol < 0 {
		t.Fatalf("policies = %v, want both %q and %q", res.Policies, ShardedName, GeomancyName)
	}
	var shardedSum, geomancySum float64
	for i, row := range res.Median {
		sharded, geomancy := row[shardedCol], row[geomancyCol]
		t.Logf("%-16s sharded %.3g  geomancy %.3g  (%.2fx)",
			res.Scenarios[i], sharded, geomancy, sharded/geomancy)
		if sharded <= 0 {
			t.Errorf("scenario %s: non-positive sharded mean %v", res.Scenarios[i], sharded)
		}
		// Partitioning restricts each file's candidate set to its shard
		// (plus escalations), so some drift is expected — but an
		// order-of-magnitude collapse on any scenario means the shard
		// engines are scoring through a broken adoption or fsid path.
		if sharded < 0.5*geomancy {
			t.Errorf("scenario %s: sharded mean %.3g below half of geomancy's %.3g",
				res.Scenarios[i], sharded, geomancy)
		}
		shardedSum += sharded
		geomancySum += geomancy
	}
	if ratio := shardedSum / geomancySum; ratio < 0.8 {
		t.Errorf("aggregate sharded/geomancy throughput ratio %.3f, want ≥ 0.8", ratio)
	}
}

// Equal options must yield an identical matrix — every cell, winner, and
// the rendered table bit-for-bit.
func TestPolicyMatrixDeterministic(t *testing.T) {
	scenarios := []string{"zipfian-hot", "hotspot-shift"}
	a, err := PolicyMatrix(Quick(7), scenarios, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PolicyMatrix(Quick(7), scenarios, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same-seed policy matrices diverged")
	}
	var ta, tb bytes.Buffer
	if err := a.Table().Render(&ta); err != nil {
		t.Fatal(err)
	}
	if err := b.Table().Render(&tb); err != nil {
		t.Fatal(err)
	}
	if ta.String() != tb.String() {
		t.Fatal("same-seed rendered tables diverged")
	}
}

// Over several seeds, every cell's band must hold its median, a paired
// win count cannot exceed the seeds run, and each seed's cells must equal
// a one-seed matrix at that seed: cells run on independent fresh
// testbeds, so aggregation must not perturb them.
func TestPolicyMatrixSeeds(t *testing.T) {
	const seeds = 3
	scenarios := []string{"zipfian-hot", "hotspot-shift"}
	opts := Quick(4)
	res, err := PolicyMatrix(opts, scenarios, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{4, 5, 6}; !reflect.DeepEqual(res.Seeds, want) {
		t.Fatalf("seeds = %v, want %v", res.Seeds, want)
	}
	for i := range res.Scenarios {
		for j, name := range res.Policies {
			q1, med, q3 := res.Q1[i][j], res.Median[i][j], res.Q3[i][j]
			if !(q1 <= med && med <= q3) {
				t.Errorf("%s under %s: q1 %v, median %v, q3 %v out of order", res.Scenarios[i], name, q1, med, q3)
			}
			if w := res.Wins[i][j]; w < 0 || w > seeds {
				t.Errorf("%s under %s: %d wins over %d seeds", res.Scenarios[i], name, w, seeds)
			}
			if len(res.Cells[i][j]) != seeds {
				t.Fatalf("%s under %s: %d cells, want %d", res.Scenarios[i], name, len(res.Cells[i][j]), seeds)
			}
		}
		if w := res.Wins[i][len(res.Policies)-1]; w != 0 {
			t.Errorf("%s: %s beat itself %d times", res.Scenarios[i], GeomancyName, w)
		}
	}
	for s, seed := range res.Seeds {
		at := opts
		at.Seed = seed
		one, err := PolicyMatrix(at, scenarios, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range res.Scenarios {
			for j, name := range res.Policies {
				if got, want := res.Cells[i][j][s], one.Median[i][j]; got != want {
					t.Errorf("seed %d, %s under %s: cell %v, one-seed matrix %v", seed, res.Scenarios[i], name, got, want)
				}
			}
		}
	}
}

// The exclusive-method quartiles: interpolated inside the sample,
// clamped to its ends, the median in the middle.
func TestQuartile(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{1, 3}, 1, 2, 3},
		{[]float64{1, 2, 9}, 1, 2, 9},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
	} {
		if q1, m, q3 := quartile(c.xs, 1), quartile(c.xs, 2), quartile(c.xs, 3); q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles of %v = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}
