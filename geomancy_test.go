package geomancy

import (
	"path/filepath"
	"strings"
	"testing"
)

func quickSystem(t *testing.T, opts ...Option) *System {
	t.Helper()
	base := []Option{
		WithSeed(1),
		WithEpochs(5),
		WithTrainingWindow(300),
		WithCooldown(2),
		WithBootstrapRuns(2),
	}
	sys, err := New(append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	return sys
}

func TestNewDefaults(t *testing.T) {
	sys := quickSystem(t)
	if got := len(sys.Devices()); got != 6 {
		t.Errorf("devices = %d, want 6 (Bluesky)", got)
	}
	if got := len(sys.Layout()); got != 24 {
		t.Errorf("files = %d, want 24 (BELLE II)", got)
	}
}

func TestRunLifecycle(t *testing.T) {
	sys := quickSystem(t)
	stats, err := sys.RunN(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 6 || len(sys.Stats()) != 6 {
		t.Fatalf("stats = %d", len(stats))
	}
	if sys.MeanThroughput() <= 0 {
		t.Error("no throughput observed")
	}
	if sys.Telemetry() == 0 {
		t.Error("no telemetry stored")
	}
	// Bootstrap 2 + cooldown 2 over 4 tuned runs → 2 decisions.
	if got := len(sys.TrainLog()); got != 2 {
		t.Errorf("trainings = %d, want 2", got)
	}
	if got := len(sys.Movements()); got != 2 {
		t.Errorf("movement events = %d, want 2", got)
	}
}

func TestOptionValidation(t *testing.T) {
	if _, err := New(WithModel(99)); err == nil {
		t.Error("invalid model should error")
	}
	if _, err := New(WithDevices([]DeviceProfile{})); err == nil {
		t.Error("empty cluster should error")
	}
}

func TestPersistentReplayDB(t *testing.T) {
	path := filepath.Join(t.TempDir(), "replay.wal")
	sys := quickSystem(t, WithReplayDB(path))
	if _, err := sys.RunN(2); err != nil {
		t.Fatal(err)
	}
	n := sys.Telemetry()
	if n == 0 {
		t.Fatal("no telemetry")
	}
	sys.Close()
	// Reopen: history survives.
	sys2 := quickSystem(t, WithReplayDB(path))
	if got := sys2.Telemetry(); got < n {
		t.Errorf("reopened db has %d records, want ≥ %d", got, n)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() float64 {
		sys, err := New(WithSeed(7), WithEpochs(4), WithTrainingWindow(200), WithCooldown(2), WithBootstrapRuns(1))
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		if _, err := sys.RunN(4); err != nil {
			t.Fatal(err)
		}
		return sys.MeanThroughput()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("equal seeds differ: %v vs %v", a, b)
	}
}

func TestCustomWorkingSet(t *testing.T) {
	files := []File{
		{ID: 1, Path: "/custom/a.root", Size: 1 << 20},
		{ID: 2, Path: "/custom/b.root", Size: 2 << 20},
	}
	sys := quickSystem(t, WithFiles(files))
	if got := len(sys.Layout()); got != 2 {
		t.Errorf("layout has %d files, want 2", got)
	}
	if _, err := sys.RunN(3); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyTargetOption(t *testing.T) {
	sys := quickSystem(t, WithLatencyTarget())
	if _, err := sys.RunN(5); err != nil {
		t.Fatal(err)
	}
	if len(sys.TrainLog()) == 0 {
		t.Error("latency-target engine never trained")
	}
}

func TestGapSchedulingOption(t *testing.T) {
	sys := quickSystem(t, WithGapScheduling())
	if _, err := sys.RunN(6); err != nil {
		t.Fatal(err)
	}
	if len(sys.Movements()) == 0 {
		t.Error("gap scheduling blocked every movement")
	}
}

// A ReplayDB that starts failing mid-bootstrap must fail the run: warm-up
// telemetry is what the first training cycle learns from, so losing it
// silently leaves Telemetry() and the WAL disagreeing with what the
// workload did.
func TestBootstrapRecordErrorSurfaces(t *testing.T) {
	const failAt = 5
	var sys *System
	seen := 0
	sys = quickSystem(t, WithObserver(func(AccessResult, int, int) {
		if seen++; seen == failAt {
			sys.db.Close() // the observer runs ahead of the append
		}
	}))
	_, err := sys.Run()
	if err == nil || !strings.Contains(err.Error(), "geomancy: recording bootstrap telemetry") {
		t.Fatalf("Run over a closed store = %v, want a bootstrap recording error", err)
	}
	if got := sys.Telemetry(); got != failAt-1 {
		t.Errorf("telemetry = %d records, want the %d stored before the failure", got, failAt-1)
	}
}
