package geomancy

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"geomancy/internal/agents"
	"geomancy/internal/telemetry"
)

func fastRetry() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 6,
		BaseDelay:   time.Millisecond,
		MaxDelay:    10 * time.Millisecond,
		IOTimeout:   2 * time.Second,
	}
}

func distributedSystem(t *testing.T, opts ...Option) (*System, *Metrics) {
	t.Helper()
	reg := NewMetrics()
	base := []Option{
		WithSeed(5),
		WithEpochs(4),
		WithTrainingWindow(300),
		WithCooldown(3),
		WithBootstrapRuns(2),
		WithDistributed(),
		WithRetryPolicy(fastRetry()),
		WithTelemetry(reg),
	}
	sys, err := New(append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	return sys, reg
}

func agentCounter(reg *Metrics, name, kind string) uint64 {
	return reg.Counter(name, telemetry.L("agent", kind)).Value()
}

// TestDistributedMatchesInProcess: the Fig. 2 plumbing (daemon, monitors,
// control agent, RemoteStore) must not change what telemetry is stored —
// every access lands in the ReplayDB exactly once.
func TestDistributedMatchesInProcess(t *testing.T) {
	sys, _ := distributedSystem(t)
	stats, err := sys.RunN(6)
	if err != nil {
		t.Fatal(err)
	}
	accesses := 0
	for _, st := range stats {
		accesses += st.Accesses
	}
	if sys.Telemetry() != accesses {
		t.Errorf("db has %d records for %d accesses; distributed path lost or duplicated telemetry",
			sys.Telemetry(), accesses)
	}
	if len(sys.Skipped()) != 0 {
		t.Errorf("healthy run skipped decisions: %+v", sys.Skipped())
	}
}

// TestDistributedDeterministicUnderFaults is the acceptance run: with ≥5%
// drops and delays injected on every agent connection, the closed loop
// completes without hanging, stores each access exactly once, exercises
// the retry/reconnect paths, and two same-seed runs converge to the same
// final layout — the faults are semantically transparent.
func TestDistributedDeterministicUnderFaults(t *testing.T) {
	faults := FaultConfig{
		Seed:      11,
		DropRate:  0.05,
		DelayRate: 0.05,
		Delay:     500 * time.Microsecond,
	}
	run := func() (map[int64]string, int, int, *Metrics, FaultStats) {
		sys, reg := distributedSystem(t, WithFaultInjection(faults))
		stats, err := sys.RunN(8)
		if err != nil {
			t.Fatal(err)
		}
		accesses := 0
		for _, st := range stats {
			accesses += st.Accesses
		}
		return sys.Layout(), accesses, sys.Telemetry(), reg, sys.FaultStats()
	}

	layout1, accesses1, records1, reg, fs := run()
	if fs.Drops == 0 && fs.Delays == 0 {
		t.Fatal("fault injector fired nothing; the run exercised no faults")
	}
	if records1 != accesses1 {
		t.Errorf("db has %d records for %d accesses; faults lost or duplicated telemetry",
			records1, accesses1)
	}
	if v := agentCounter(reg, telemetry.MetricAgentRetriesTotal, "monitor"); v == 0 {
		t.Error("monitor retry counter is 0 despite injected drops")
	}
	if v := agentCounter(reg, telemetry.MetricAgentReconnectsTotal, "monitor"); v == 0 {
		t.Error("monitor reconnect counter is 0 despite injected drops")
	}

	layout2, accesses2, records2, _, _ := run()
	if records2 != accesses2 {
		t.Errorf("second run: db has %d records for %d accesses", records2, accesses2)
	}
	if len(layout1) != len(layout2) {
		t.Fatalf("layout sizes differ: %d vs %d", len(layout1), len(layout2))
	}
	for id, dev := range layout1 {
		if layout2[id] != dev {
			t.Errorf("file %d: run1 on %s, run2 on %s — faults leaked into the decisions",
				id, dev, layout2[id])
		}
	}
}

// TestDistributedDegradesWhenDaemonDies: killing the daemon mid-run must
// not error or hang the loop — it keeps serving the last-known layout,
// records the skipped decisions, counts them on the degraded metric, and
// tears down cleanly without leaking goroutines.
func TestDistributedDegradesWhenDaemonDies(t *testing.T) {
	baseline := runtime.NumGoroutine()
	pol := fastRetry()
	pol.MaxAttempts = 2
	pol.IOTimeout = 200 * time.Millisecond
	sys, reg := distributedSystem(t, WithCooldown(2), WithRetryPolicy(pol))

	if _, err := sys.RunN(4); err != nil {
		t.Fatal(err)
	}
	healthyRecords := sys.Telemetry()
	layoutBefore := sys.Layout()

	// The outage: the Interface Daemon dies under the agents.
	if err := sys.daemon.Close(); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 3; i++ {
		if _, err := sys.RunContext(t.Context()); err != nil {
			t.Fatalf("run %d after daemon death: %v (fail-open must absorb the outage)", i, err)
		}
	}
	if len(sys.Skipped()) == 0 {
		t.Error("no skipped decisions recorded during the outage")
	}
	if v := reg.Counter(telemetry.MetricAgentDegradedTotal).Value(); v == 0 {
		t.Error("degraded-decisions counter is 0 during the outage")
	}
	if sys.Telemetry() != healthyRecords {
		t.Errorf("db grew from %d to %d records while the daemon was dead",
			healthyRecords, sys.Telemetry())
	}
	// The last-known layout keeps being served.
	layoutAfter := sys.Layout()
	for id, dev := range layoutBefore {
		if layoutAfter[id] != dev {
			t.Errorf("file %d moved from %s to %s with no daemon to decide it", id, dev, layoutAfter[id])
		}
	}

	if err := sys.Close(); err != nil {
		t.Errorf("close after outage: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > baseline+2 {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline+2 {
		t.Errorf("%d goroutines alive after Close (baseline %d); agent loops leaked", n, baseline)
	}
}

// TestDistributedFailClosedSurfacesBootstrapOutage: fail-closed means an
// unreachable daemon is a Run error from the first run on, bootstrap
// included — the telemetry-only phase used to swallow it regardless.
func TestDistributedFailClosedSurfacesBootstrapOutage(t *testing.T) {
	pol := fastRetry()
	pol.MaxAttempts = 2
	pol.IOTimeout = 200 * time.Millisecond
	sys, _ := distributedSystem(t, WithRetryPolicy(pol), WithFailOpen(false))
	if err := sys.daemon.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); !errors.Is(err, agents.ErrUnavailable) {
		t.Fatalf("bootstrap run against a dead daemon: err = %v, want agents.ErrUnavailable", err)
	}
}
