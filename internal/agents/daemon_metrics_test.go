package agents

import (
	"strings"
	"testing"
	"time"

	"geomancy/internal/replaydb"
	"geomancy/internal/telemetry"
)

func newTestDB(t *testing.T) *replaydb.DB {
	t.Helper()
	db, err := replaydb.Open(replaydb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestPushLayoutAckTimeout(t *testing.T) {
	d, _, addr := startDaemon(t)
	d.AckTimeout = 50 * time.Millisecond
	rawControl(t, addr)
	waitFor(t, "raw control registration", func() bool { return d.ControlCount() == 1 })

	start := time.Now()
	_, err := d.PushLayout(map[int64]string{1: "pic"})
	if err == nil {
		t.Fatal("PushLayout should time out when the control agent never acks")
	}
	if !strings.Contains(err.Error(), "timed out") {
		t.Errorf("error = %v, want ack timeout", err)
	}
	if elapsed := time.Since(start); elapsed < d.AckTimeout {
		t.Errorf("returned after %v, before the %v ack timeout", elapsed, d.AckTimeout)
	}
}

func TestPushLayoutErrorAck(t *testing.T) {
	d, _, addr := startDaemon(t)
	peer := rawControl(t, addr)
	waitFor(t, "raw control registration", func() bool { return d.ControlCount() == 1 })

	// Ack every layout push with an error, like a control agent whose
	// mover failed.
	go func() {
		var env Envelope
		for peer.read(&env, time.Time{}) == nil {
			if env.Type == TypeLayout {
				peer.write(&Envelope{Type: TypeLayoutAck, Error: "mover: disk on fire"}, time.Time{})
			}
		}
	}()
	_, err := d.PushLayout(map[int64]string{1: "pic"})
	if err == nil || !strings.Contains(err.Error(), "disk on fire") {
		t.Errorf("error = %v, want the control agent's mover error", err)
	}
}

func TestDaemonMetrics(t *testing.T) {
	db := newTestDB(t)
	d := NewDaemon(db)
	d.SetMetrics(telemetry.NewRegistry())
	reg := telemetry.NewRegistry()
	d.SetMetrics(reg) // re-wiring replaces the handles cleanly
	addr, err := d.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	m, err := NewMonitor(addr, "pic", 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := m.Observe(sampleResult("pic", i), 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "reports stored", func() bool { return db.Len() == 4 })
	m.Close()
	waitFor(t, "connection closed", func() bool {
		return reg.Gauge(telemetry.MetricDaemonConnectionsOpen).Value() == 0
	})

	if got := reg.Counter(telemetry.MetricDaemonConnectionsTotal).Value(); got != 1 {
		t.Errorf("connections_total = %d, want 1", got)
	}
	if got := reg.Counter(telemetry.MetricDaemonReportsTotal).Value(); got != 4 {
		t.Errorf("reports_total = %d, want 4", got)
	}
	rpc := reg.Histogram(telemetry.MetricDaemonRPCSeconds, telemetry.DefDurationBuckets, telemetry.L("type", TypeMetrics.String()))
	if rpc.Count() != 1 {
		t.Errorf("rpc histogram count = %d, want 1 batch", rpc.Count())
	}
	// A push with no registered controls is an error and counts as one.
	if _, err := d.PushLayout(map[int64]string{1: "x"}); err == nil {
		t.Fatal("expected error with no controls")
	}
	if got := reg.Counter(telemetry.MetricDaemonErrorsTotal).Value(); got != 1 {
		t.Errorf("errors_total = %d, want 1", got)
	}
	if got := reg.Counter(telemetry.MetricDaemonLayoutPushes).Value(); got != 0 {
		t.Errorf("layout_pushes_total = %d, want 0 (push failed)", got)
	}
}
