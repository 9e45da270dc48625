package main

import (
	"math"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestDeclaration holds BENCHMARK.json to the benchmark contract's limits
// and to the workloads this package implements.
func TestDeclaration(t *testing.T) {
	bf, err := loadBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(bf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", bf.RunSeconds)
	}
	seen := make(map[string]bool)
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q breaks the naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, wl := range bf.Workloads {
		name(wl.Name)
		if _, ok := findSpec(wl.Name); !ok {
			t.Errorf("declared workload %q is not implemented", wl.Name)
		}
		if len(wl.Why) == 0 || len(wl.Why) > 200 {
			t.Errorf("workload %q: why has %d characters, want 1..200", wl.Name, len(wl.Why))
		}
	}
	if len(bf.Workloads) != len(specs) {
		t.Errorf("%d workloads declared, %d implemented", len(bf.Workloads), len(specs))
	}
	setup := false
	for _, d := range bf.EndToEnd {
		name(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" {
			setup = true
		}
	}
	if !setup {
		t.Error("no setup_s end-to-end metric in seconds, lower is better")
	}
	for _, d := range append(append([]declared(nil), bf.EndToEnd...), bf.PerLayer...) {
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q breaks the unit rule", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	for _, d := range bf.PerLayer {
		name(d.Name)
	}
}

// TestSmoke runs every workload at toy scale, two cycles through both
// passes, and checks that each declared metric is measured (not merely
// defaulted) by the pass that reports it, that the output checks hold,
// that the traced re-assembly ends in the facade's state, and that span
// self times account for the window exactly once.
func TestSmoke(t *testing.T) {
	bf, err := loadBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	measuredSomewhere := make(map[string]bool)
	for _, full := range specs {
		s := full.toy()
		t.Run(s.name, func(t *testing.T) {
			in := s.generate(7)
			runs := 2 * s.cooldown
			res, err := untracedPass(s, in, passConfig{fixedRuns: runs, setups: 2, dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range res.Violations {
				t.Error("untraced:", v)
			}
			if res.Failed != 0 || res.Attempted < runs {
				t.Errorf("untraced: %d failed of %d attempted", res.Failed, res.Attempted)
			}
			for _, d := range bf.EndToEnd {
				v, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("end-to-end metric %s not emitted", d.Name)
					continue
				}
				if v.Unit != d.Unit {
					t.Errorf("%s: emitted in %q, declared in %q", d.Name, v.Unit, d.Unit)
				}
				if v.Value <= 0 {
					t.Errorf("%s = %v, end-to-end metrics must never be 0", d.Name, v.Value)
				}
			}

			traced, err := tracedPass(s, in, passConfig{fixedRuns: runs, dir: t.TempDir(), probes: 200 * time.Microsecond})
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range traced.Violations {
				t.Error("traced:", v)
			}
			if traced.Failed != 0 {
				t.Errorf("traced: %d failed of %d attempted", traced.Failed, traced.Attempted)
			}
			if traced.Digest != res.Digest || traced.SimGBps != res.SimGBps || traced.Records != res.Records {
				t.Errorf("traced pass ended at layout %s, %v GB/s, %d records; facade pass at %s, %v, %d",
					traced.Digest, traced.SimGBps, traced.Records, res.Digest, res.SimGBps, res.Records)
			}
			// Exact equality with the root spans is a violation checked by
			// the pass itself; against the window's own clock only the
			// driver loop between Run calls may be missing.
			if r := traced.Metrics["trace.self_sum_over_wall"].Value; r < 0.9 || r > 1.0 {
				t.Errorf("span self times cover %.4f of the window's wall time, want 0.9..1", r)
			}
			for _, d := range bf.PerLayer {
				v, ok := traced.Metrics[d.Name]
				if !ok {
					continue
				}
				measuredSomewhere[d.Name] = true
				if v.Unit != d.Unit {
					t.Errorf("%s: emitted in %q, declared in %q", d.Name, v.Unit, d.Unit)
				}
			}
			declaredNames := make(map[string]bool)
			for _, d := range append(append([]declared(nil), bf.EndToEnd...), bf.PerLayer...) {
				declaredNames[d.Name] = true
			}
			for name := range traced.Metrics {
				if !declaredNames[name] {
					t.Errorf("metric %s is measured but not declared in BENCHMARK.json", name)
				}
			}
			if got := declaredOnly(traced.Metrics, bf.PerLayer); len(got) != len(bf.PerLayer) {
				t.Errorf("%d per-layer metrics reported, %d declared", len(got), len(bf.PerLayer))
			}
		})
	}
	for _, d := range bf.PerLayer {
		if !measuredSomewhere[d.Name] {
			t.Errorf("per-layer metric %s is declared but no workload measures it", d.Name)
		}
	}
}

func TestSpread(t *testing.T) {
	// Python: statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestJudge(t *testing.T) {
	lower := declared{Name: "cycle_ms_p50", Better: "lower", Bound: 0.1}
	higher := declared{Name: "accesses_per_s", Better: "higher", Bound: 0.1}
	for _, tc := range []struct {
		d    declared
		a, b []float64
		want string
	}{
		{lower, []float64{100, 101, 99}, []float64{100, 102, 98}, "unchanged"},
		{lower, []float64{100, 101, 99}, []float64{120, 121, 119}, "regressed"},
		{lower, []float64{100, 101, 99}, []float64{80, 81, 79}, "improved"},
		{lower, []float64{100, 130, 80}, []float64{100, 131, 79}, "unresolved"},
		{lower, []float64{100, 130, 90}, []float64{50, 60, 40}, "improved"},
		{higher, []float64{100, 101, 99}, []float64{80, 81, 79}, "regressed"},
		{higher, []float64{100, 101, 99}, []float64{120, 121, 119}, "improved"},
		{declared{Name: "failed_ops_share"}, []float64{0, 0}, []float64{0, 0.01, 0.02}, "regressed"},
	} {
		if got := judge(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("judge(%s, %v, %v) = %s, want %s", tc.d.Name, tc.a, tc.b, got, tc.want)
		}
	}
}
