package experiments

import (
	"reflect"
	"testing"
)

// shiftOptions spans one hotspot migration mid-measurement: 4 bootstrap +
// 16 measured runs with the scenario shifting a quarter of the keyspace
// every 10 runs, so the hot set moves while both learners are being
// scored.
func shiftOptions(seed int64) Options {
	return Options{
		Seed:          seed,
		Runs:          16,
		BootstrapRuns: 4,
		Epochs:        6,
		WindowX:       400,
		CooldownRuns:  2,
		TraceRecords:  4000,
		SeriesWindow:  200,
	}
}

// tailMean averages the last third of a series' windowed points — the
// post-shift regime of shiftOptions' hotspot-shift run.
func tailMean(s Series) float64 {
	pts := s.Points
	if len(pts) == 0 {
		return 0
	}
	tail := pts[len(pts)-len(pts)/3:]
	var sum float64
	for _, p := range tail {
		sum += p.Throughput
	}
	return sum / float64(len(tail))
}

// TestOnlineGeomancyReconvergesAfterShift: on a workload whose hot set
// migrates mid-run, incremental updates on the newest telemetry must
// track the shift faster than periodic full retrains over a window still
// dominated by pre-shift accesses. Same seed, same testbed construction,
// same decision cadence — the policies differ only in how they learn.
// The run is fully deterministic, so the margins are stable.
func TestOnlineGeomancyReconvergesAfterShift(t *testing.T) {
	opts := shiftOptions(3)
	online, _, tbO, err := runScenarioPolicy("hotspot-shift", namedBuilder("online-geomancy", 0, engineConfig(opts)), opts)
	if err != nil {
		t.Fatal(err)
	}
	tbO.db.Close()
	periodic, _, tbP, err := runScenarioPolicy("hotspot-shift", namedBuilder("geomancy", 0, engineConfig(opts)), opts)
	if err != nil {
		t.Fatal(err)
	}
	tbP.db.Close()

	if online.Mean <= 0 || periodic.Mean <= 0 {
		t.Fatalf("degenerate series: online %v, periodic %v", online.Mean, periodic.Mean)
	}
	if online.Mean <= periodic.Mean {
		t.Errorf("online-geomancy mean %.3e did not beat periodic retrain %.3e on hotspot-shift",
			online.Mean, periodic.Mean)
	}
	ot, pt := tailMean(online), tailMean(periodic)
	if ot <= pt {
		t.Errorf("post-shift throughput: online %.3e <= periodic %.3e (no re-convergence advantage)", ot, pt)
	}
}

// TestOnlineUpdateDeterminism: the incremental-update path (scaler reuse,
// minibatch SGD on the newest window) must be bit-identical across
// same-seed runs — otherwise online-geomancy would break the module's
// resume and replay guarantees.
func TestOnlineUpdateDeterminism(t *testing.T) {
	opts := shiftOptions(5)
	opts.Runs = 8

	type outcome struct {
		Series Series
		Layout map[int64]string
	}
	run := func() outcome {
		t.Helper()
		s, _, tb, err := runScenarioPolicy("hotspot-shift", namedBuilder("online-geomancy", 0, engineConfig(opts)), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer tb.db.Close()
		return outcome{Series: s, Layout: tb.cluster.Layout()}
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Error("same-seed online runs diverged")
	}
}
