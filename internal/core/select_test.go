package core

import (
	"fmt"
	"testing"

	"geomancy/internal/rng"
)

// TestActionChecker drives the select stage's greedy half — greedyPick then
// choose — over one file's scored devices: invalid destinations never win,
// the first strictly highest score does, a device the decision did not
// score is no candidate, an all-invalid file falls back to a random
// movement drawn from the lone unit's stream (the engine's), and an engine
// with no devices has nowhere to go.
func TestActionChecker(t *testing.T) {
	all := []int{0, 1, 2}
	for _, tc := range []struct {
		name    string
		devices []string
		devs    []int     // the devices the decision scored, ascending
		scores  []float64 // scores[k] is devs[k]'s
		latency bool
		invalid map[string]bool

		want       string // "" with wantRandom: any device
		wantRandom bool
		wantOK     bool
	}{
		{name: "highest wins", devices: []string{"a", "b", "c"}, devs: all, scores: []float64{1, 5, 3},
			want: "b", wantOK: true},
		{name: "first of equals wins", devices: []string{"a", "b", "c"}, devs: all, scores: []float64{5, 5, 3},
			want: "a", wantOK: true},
		{name: "latency minimizes", devices: []string{"a", "b", "c"}, devs: all, scores: []float64{2, 5, 3}, latency: true,
			want: "a", wantOK: true},
		{name: "invalid filtered", devices: []string{"a", "b"}, devs: all[:2], scores: []float64{1, 99},
			invalid: map[string]bool{"b": true}, want: "a", wantOK: true},
		{name: "an unscored device is no candidate", devices: []string{"a", "b", "c", "d"}, devs: []int{0, 2, 3},
			scores: []float64{1, 3, 2}, want: "c", wantOK: true},
		{name: "all invalid falls back to random", devices: []string{"x", "y", "z"}, devs: all, scores: []float64{1, 2, 3},
			invalid: map[string]bool{"x": true, "y": true, "z": true}, wantRandom: true, wantOK: true},
		{name: "nowhere to go"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var validated []string
			e := &Engine{rng: rng.New(3), devices: tc.devices}
			e.valid = func(dev string, size int64) error {
				validated = append(validated, dev)
				if tc.invalid[dev] {
					return fmt.Errorf("%s is read-only", dev)
				}
				return nil
			}
			if tc.latency {
				e.cfg.Target = TargetLatency
			}
			pick := e.greedyPick(tc.devs, tc.scores, 0)
			// The validator sees every scored device once, in device order,
			// and nothing else.
			var scored []string
			for _, j := range tc.devs {
				scored = append(scored, tc.devices[j])
			}
			if fmt.Sprint(validated) != fmt.Sprint(scored) {
				t.Errorf("validator saw %v, want the scored devices %v", validated, scored)
			}
			if tc.wantRandom || !tc.wantOK {
				if pick != -1 {
					t.Fatalf("greedyPick = %d with nothing valid, want -1", pick)
				}
			} else if tc.devices[pick] != tc.want {
				t.Fatalf("greedyPick = %s, want %s", tc.devices[pick], tc.want)
			}

			u := &e.lone().units[0]
			seen := map[int]bool{}
			for i := 0; i < 60; i++ {
				dev, random, ok := u.choose(pick)
				if ok != tc.wantOK || random != tc.wantRandom {
					t.Fatalf("choose = %d random=%v ok=%v, want random=%v ok=%v", dev, random, ok, tc.wantRandom, tc.wantOK)
				}
				if ok && !random && dev != pick {
					t.Fatalf("choose = %d, want the pick %d", dev, pick)
				}
				seen[dev] = true
			}
			if tc.wantRandom && len(seen) < 2 {
				t.Errorf("random fallback not exploring: saw %v", seen)
			}
		})
	}
}
