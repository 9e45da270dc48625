package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestAblationSweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweeps are slow")
	}
	opts := Quick(21)
	opts.Runs = 4
	cases := []struct {
		name   string
		run    func(Options) (*AblationResult, error)
		points int
	}{
		{"epsilon", AblationEpsilon, 3},
		{"cooldown", AblationCooldown, 3},
		{"smoothing", AblationSmoothing, 3},
		{"optimizer", AblationOptimizer, 2},
		{"gaps", AblationGapScheduling, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := c.run(opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Points) != c.points {
				t.Fatalf("%d points, want %d", len(res.Points), c.points)
			}
			for _, p := range res.Points {
				if p.Label == "" {
					t.Error("unlabeled point")
				}
				if p.Mean <= 0 {
					t.Errorf("point %q has no throughput", p.Label)
				}
			}
			var buf bytes.Buffer
			if err := res.Table().Render(&buf); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), "Ablation") {
				t.Error("table title missing")
			}
		})
	}
}

func TestWeightedPoliciesExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	opts := Quick(22)
	opts.Runs = 4
	res, err := WeightedPolicies(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("%d series, want 3", len(res.Series))
	}
	names := map[string]bool{}
	for _, s := range res.Series {
		names[s.Name] = true
		if s.Mean <= 0 {
			t.Errorf("series %q empty", s.Name)
		}
	}
	if !names["LFU (capacity-weighted)"] {
		t.Errorf("weighted series missing: %v", names)
	}
	if len(res.GeomancyGain) != 2 {
		t.Errorf("gains = %v", res.GeomancyGain)
	}
}
