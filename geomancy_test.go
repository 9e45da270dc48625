package geomancy

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"geomancy/internal/core"
	"geomancy/internal/policy"
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
	if _, err := New(WithModel(18)); !errors.Is(err, core.ErrRecurrentModel) {
		t.Errorf("New(WithModel(18)) = %v, want core.ErrRecurrentModel", err)
	}
	if _, err := New(WithDevices([]DeviceProfile{})); err == nil {
		t.Error("empty cluster should error")
	}
	if _, err := New(WithPolicy("tiered-geomancy")); !errors.Is(err, ErrUnknownPolicy) {
		t.Errorf("New(WithPolicy(tiered-geomancy)) = %v, want ErrUnknownPolicy", err)
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

// TestNegativePruningOptionsRejected: WithTopK(-1) used to build a system
// whose first pruned decision panicked, a negative WithFullRescanEvery
// silently turned the cadence rescan off, WithTrainingWindow(-5) built one
// whose every decision failed for want of telemetry, WithEpochs(-3) one
// that trained a single epoch per fit, and WithParallelism(-2) one that
// ran on a single worker. New refuses each, naming the field.
func TestNegativePruningOptionsRejected(t *testing.T) {
	for _, tc := range []struct {
		field string
		opts  []Option
	}{
		{"TopK", []Option{WithTopK(-1)}},
		{"FullRescanEvery", []Option{WithTopK(2), WithFullRescanEvery(-1)}},
		{"WindowX", []Option{WithTrainingWindow(-5)}},
		{"Epochs", []Option{WithEpochs(-3)}},
		{"Parallelism", []Option{WithParallelism(-2)}},
	} {
		sys, err := New(tc.opts...)
		if err == nil {
			sys.Close()
		}
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("negative %s: err = %v, want one naming %s", tc.field, err, tc.field)
		}
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
// workload did. Warm-up runs go through the loop, which appends an access
// before its observers see it, so the failAt-th access is stored.
func TestBootstrapRecordErrorSurfaces(t *testing.T) {
	const failAt = 5
	var sys *System
	seen := 0
	sys = quickSystem(t, WithObserver(func(AccessResult, int, int) {
		if seen++; seen == failAt {
			sys.db.Close()
		}
	}))
	_, err := sys.Run()
	if err == nil || !strings.Contains(err.Error(), "core: recording telemetry") {
		t.Fatalf("Run over a closed store = %v, want a telemetry recording error", err)
	}
	if got := sys.Telemetry(); got != failAt {
		t.Errorf("telemetry = %d records, want the %d stored before the failure", got, failAt)
	}
}

// Warm-up runs go through the loop, so the first decision of a policy that
// reads access history sees the warm-up accesses: LFU's first layout is the
// ranking by every access so far, not by the post-warm-up ones alone.
func TestWarmupFeedsFirstDecision(t *testing.T) {
	const warmup = 2
	all := map[int64]int64{}
	late := map[int64]int64{} // what a loop that skipped the warm-up would count
	sys := quickSystem(t, WithPolicy("lfu"), WithBootstrapRuns(warmup), WithCooldown(3),
		WithObserver(func(res AccessResult, _, run int) {
			all[res.FileID]++
			if run >= warmup {
				late[res.FileID]++
			}
		}))
	if _, err := sys.RunN(warmup + 1); err != nil {
		t.Fatal(err)
	}
	if got := len(sys.Movements()); got != 1 {
		t.Fatalf("%d decisions after %d runs, want the first one", got, warmup+1)
	}
	// LFU reads only the device ranking and the access counts, and neither
	// moved since the decision.
	lfu := func(counts map[int64]int64) map[int64]string {
		st := core.PolicyState(sys.db, sys.cluster, sys.runner.Files())
		for i := range st.Files {
			st.Files[i].Accesses = counts[st.Files[i].ID]
		}
		layout, err := policy.LFU().Propose(context.Background(), st)
		if err != nil {
			t.Fatal(err)
		}
		return layout
	}
	want := lfu(all)
	if reflect.DeepEqual(want, lfu(late)) {
		t.Fatal("warm-up and post-warm-up counts rank alike; the test cannot tell them apart")
	}
	if got := sys.Layout(); !reflect.DeepEqual(got, want) {
		t.Errorf("first LFU layout = %v, want the ranking by all %d runs' accesses %v", got, warmup+1, want)
	}
}
