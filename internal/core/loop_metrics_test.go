package core

import (
	"context"
	"testing"

	"geomancy/internal/replaydb"
	"geomancy/internal/storagesim"
	"geomancy/internal/telemetry"
	"geomancy/internal/trace"
	"geomancy/internal/workload"
)

// The loop's instrumentation should reconcile with its own bookkeeping
// after a few decision cycles.
func TestLoopMetrics(t *testing.T) {
	cluster := storagesim.NewBluesky(13)
	files := trace.BelleFileSet(13)
	runner := workload.NewRunner(cluster, files, 1, 13)
	if err := runner.SpreadEvenly(cluster.DeviceNames()); err != nil {
		t.Fatal(err)
	}
	db, _ := replaydb.Open(replaydb.Options{})
	defer db.Close()
	loop, err := NewNamedLoop(db, db, cluster, runner, "geomancy", Config{Epochs: 4, WindowX: 300, CooldownRuns: 2, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	loop.SetMetrics(reg)
	db.SetMetrics(reg)

	for i := 0; i < 4; i++ {
		if _, err := loop.RunOnceContext(context.Background()); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}

	// Per-device access instrumentation covers every access exactly once.
	var accesses uint64
	for _, dev := range cluster.DeviceNames() {
		accesses += reg.Counter(telemetry.MetricAccessesTotal, telemetry.L("device", dev)).Value()
	}
	if accesses != uint64(loop.accessCount) {
		t.Errorf("access counters sum to %d, loop counted %d", accesses, loop.accessCount)
	}
	lat := reg.Histogram(telemetry.MetricAccessLatency, telemetry.DefLatencyBuckets, telemetry.L("device", "pic"))
	if lat.Count() == 0 || lat.Quantile(0.95) <= 0 {
		t.Errorf("pic latency histogram empty: count %d p95 %v", lat.Count(), lat.Quantile(0.95))
	}

	// Cooldown 2 over 4 runs → 2 training cycles.
	if got := reg.Counter(telemetry.MetricTrainingsTotal).Value(); got != 2 {
		t.Errorf("trainings_total = %d, want 2", got)
	}
	if d := reg.Gauge(telemetry.MetricTrainingDuration).Value(); d <= 0 {
		t.Errorf("training duration gauge = %v, want > 0", d)
	}

	var moved int
	for _, mv := range loop.Movements() {
		moved += mv.Moved
	}
	if got := reg.Counter(telemetry.MetricMovementsTotal).Value(); got != uint64(moved) {
		t.Errorf("movements_total = %d, loop moved %d", got, moved)
	}

	// ReplayDB counters: every loop access was inserted, movements match.
	if got := reg.Counter(telemetry.MetricReplayAccessInserts).Value(); got != uint64(db.Len()) {
		t.Errorf("access inserts = %d, db has %d", got, db.Len())
	}
	if got := reg.Counter(telemetry.MetricReplayMovementInserts).Value(); got != uint64(db.MovementCount()) {
		t.Errorf("movement inserts = %d, db has %d", got, db.MovementCount())
	}
	// Training reads go through the query counter.
	if got := reg.Counter(telemetry.MetricReplayQueriesTotal).Value(); got == 0 {
		t.Error("queries_total = 0, training should have queried the db")
	}
}
