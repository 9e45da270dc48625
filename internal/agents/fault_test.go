package agents

import (
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"geomancy/internal/faultnet"
	"geomancy/internal/replaydb"
	"geomancy/internal/telemetry"
)

// fastPolicy keeps retry-path tests quick.
func fastPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   time.Millisecond,
		MaxDelay:    5 * time.Millisecond,
		IOTimeout:   2 * time.Second,
	}
}

// ackKillingProxy sits between an agent and the daemon. While armed, it
// severs both sides of a connection the moment the daemon sends bytes back
// (i.e. it delivers the batch but destroys the ack), then disarms.
type ackKillingProxy struct {
	ln     net.Listener
	target string
	armed  atomic.Bool
}

func startAckKillingProxy(t *testing.T, target string) *ackKillingProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &ackKillingProxy{ln: ln, target: target}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			cli, err := ln.Accept()
			if err != nil {
				return
			}
			srv, err := net.Dial("tcp", target)
			if err != nil {
				cli.Close()
				continue
			}
			go func() { io.Copy(srv, cli); srv.Close() }()
			go func() {
				buf := make([]byte, 4096)
				for {
					n, err := srv.Read(buf)
					if err != nil {
						cli.Close()
						return
					}
					if p.armed.CompareAndSwap(true, false) {
						// The daemon processed the batch; its ack dies here.
						srv.Close()
						cli.Close()
						return
					}
					if _, err := cli.Write(buf[:n]); err != nil {
						srv.Close()
						return
					}
				}
			}()
		}
	}()
	return p
}

// TestMonitorReplayDoesNotDuplicateBatch is the regression test for the
// duplicate-telemetry bug: a batch whose ack was lost used to be re-sent
// under a fresh ID, so the daemon stored it twice. Now the replay keeps
// the original ID and the daemon dedupes by (From, ID).
func TestMonitorReplayDoesNotDuplicateBatch(t *testing.T) {
	db, err := replaydb.Open(replaydb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	d := NewDaemon(db)
	reg := telemetry.NewRegistry()
	d.SetMetrics(reg)
	addr, err := d.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	proxy := startAckKillingProxy(t, addr)

	m, err := NewMonitor(proxy.ln.Addr().String(), "pic", 4, WithRetryPolicy(fastPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Arm the proxy: the flush's batch reaches the daemon, the ack does not.
	proxy.armed.Store(true)
	for i := 0; i < 4; i++ {
		if err := m.Observe(sampleResult("pic", i), 1, 0); err != nil {
			t.Fatalf("observe %d: %v", i, err)
		}
	}
	if m.Pending() != 0 {
		t.Fatalf("pending = %d after flush, want 0", m.Pending())
	}
	if got := db.Len(); got != 4 {
		t.Errorf("db has %d records, want 4 (replayed batch must dedupe)", got)
	}
	if v := reg.Counter(telemetry.MetricDaemonDuplicateBatches).Value(); v == 0 {
		t.Error("duplicate-batch counter is 0; the replay never hit the dedupe path")
	}

	// The next batch must ship under a fresh ID and store normally.
	for i := 4; i < 8; i++ {
		if err := m.Observe(sampleResult("pic", i), 1, 0); err != nil {
			t.Fatalf("observe %d: %v", i, err)
		}
	}
	if got := db.Len(); got != 8 {
		t.Errorf("db has %d records after second batch, want 8", got)
	}
}

// TestClientTimesOutOnHungDaemon: a daemon that accepts but never answers
// used to block the engine's training query forever; now the I/O deadline
// turns it into ErrUnavailable within the retry budget.
func TestClientTimesOutOnHungDaemon(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			// Read and drop everything; never reply.
			go io.Copy(io.Discard, conn)
		}
	}()

	pol := fastPolicy()
	pol.MaxAttempts = 2
	pol.IOTimeout = 50 * time.Millisecond
	cl, err := DialRemoteStore(ln.Addr().String(), WithRetryPolicy(pol))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	start := time.Now()
	_, err = cl.query(Envelope{Type: TypeRecentQuery, N: 10})
	if err == nil {
		t.Fatal("query against hung daemon succeeded")
	}
	if !errors.Is(err, ErrUnavailable) {
		t.Errorf("err = %v, want ErrUnavailable", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("query took %v; deadline did not bound the hang", elapsed)
	}
}

// TestClientDrainsStaleReplies: a reply whose ID predates the query (left
// over from an abandoned round trip) must be drained, not returned as the
// answer — the bug that used to desync the stream permanently.
func TestClientDrainsStaleReplies(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		c := newCodec(conn)
		var req Envelope
		if err := c.read(&req, time.Time{}); err != nil {
			return
		}
		// A stale reply from a round trip the client abandoned earlier...
		c.write(&Envelope{Type: TypeRecentReply, ID: req.ID - 1, Reports: []replaydb.AccessRecord{
			{Device: "stale", Throughput: 1},
		}}, time.Time{})
		// ...then the real answer.
		c.write(&Envelope{Type: TypeRecentReply, ID: req.ID, Reports: []replaydb.AccessRecord{
			{Device: "fresh", Throughput: 2},
		}}, time.Time{})
	}()

	cl, err := DialRemoteStore(ln.Addr().String(), WithRetryPolicy(fastPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	reports, err := cl.query(Envelope{Type: TypeRecentQuery, N: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0].Device != "fresh" {
		t.Errorf("got %+v, want the fresh reply only", reports)
	}
}

// framePeer is the one raw peer the tests use: a bare connection to addr
// that speaks frames through the package's codec and nothing else — no
// session, no retry, no receive loop — so a test scripts exactly what
// crosses the wire.
func framePeer(t *testing.T, addr string) *codec {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return newCodec(conn)
}

// rawControl registers a framePeer as a control agent. It never acks unless
// the test makes it, so a push to it hangs until the ack timeout.
func rawControl(t *testing.T, addr string) *codec {
	t.Helper()
	c := framePeer(t, addr)
	if err := c.write(&Envelope{Type: TypeRegisterControl}, time.Time{}); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestPushLayoutDeterministicWireOrder: layout entries must leave the
// daemon sorted by FileID, not in the map's random iteration order.
func TestPushLayoutDeterministicWireOrder(t *testing.T) {
	d, _, addr := startDaemon(t)
	peer := rawControl(t, addr)
	waitFor(t, "control registration", func() bool { return d.ControlCount() == 1 })

	layout := map[int64]string{5: "a", 1: "b", 9: "c", 3: "d", 7: "e"}
	for round := 0; round < 3; round++ {
		errCh := make(chan error, 1)
		go func() {
			_, err := d.PushLayout(layout)
			errCh <- err
		}()
		var env Envelope
		if err := peer.read(&env, time.Time{}); err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(env.Layout); i++ {
			if env.Layout[i-1].FileID >= env.Layout[i].FileID {
				t.Fatalf("round %d: wire order not sorted by FileID: %+v", round, env.Layout)
			}
		}
		if err := peer.write(&Envelope{Type: TypeLayoutAck, ID: env.ID}, time.Time{}); err != nil {
			t.Fatal(err)
		}
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
}

// TestPushLayoutContactsEveryAgent: one unresponsive agent must not leave
// the others with a stale layout, and the aggregated error must name it.
func TestPushLayoutContactsEveryAgent(t *testing.T) {
	d, _, addr := startDaemon(t)
	d.AckTimeout = 200 * time.Millisecond

	var applied1, applied2 atomic.Int64
	mover := func(ctr *atomic.Int64) Mover {
		return func(fileID int64, device string) (bool, error) {
			ctr.Add(1)
			return true, nil
		}
	}
	c1, err := NewControl(addr, mover(&applied1), WithRetryPolicy(fastPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := NewControl(addr, mover(&applied2), WithRetryPolicy(fastPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	// Registers, then never acks.
	rawControl(t, addr)
	waitFor(t, "3 control registrations", func() bool { return d.ControlCount() == 3 })

	moved, outcomes, err := d.push(map[int64]string{1: "a", 2: "b"})
	if err == nil {
		t.Fatal("push with a silent agent reported success")
	}
	if !errors.Is(err, ErrUnavailable) {
		t.Errorf("err = %v, want ErrUnavailable in the chain", err)
	}
	if len(outcomes) != 3 {
		t.Fatalf("got %d outcomes, want 3", len(outcomes))
	}
	failures := 0
	for _, oc := range outcomes {
		if oc.err != nil {
			failures++
		}
	}
	if failures != 1 {
		t.Errorf("%d failing outcomes, want exactly the silent agent", failures)
	}
	// Both live agents were contacted despite the failure.
	if applied1.Load() != 2 || applied2.Load() != 2 {
		t.Errorf("live agents applied %d/%d moves, want 2/2 — push must broadcast to all",
			applied1.Load(), applied2.Load())
	}
	if moved != 4 {
		t.Errorf("moved = %d, want 4 (2 files × 2 live agents)", moved)
	}
}

// TestMonitorRedialsAfterDaemonRestart: a monitor whose daemon died holds
// the unacked batch, then redials and replays it when the daemon returns.
func TestMonitorRedialsAfterDaemonRestart(t *testing.T) {
	db, err := replaydb.Open(replaydb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	d1 := NewDaemon(db)
	addr, err := d1.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	pol := fastPolicy()
	pol.MaxAttempts = 2
	m, err := NewMonitor(addr, "pic", 8, WithRetryPolicy(pol), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	for i := 0; i < 3; i++ {
		if err := m.Observe(sampleResult("pic", i), 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if db.Len() != 3 {
		t.Fatalf("db has %d records, want 3", db.Len())
	}

	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 5; i++ {
		if err := m.Observe(sampleResult("pic", i), 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Flush(); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("flush against dead daemon: err = %v, want ErrUnavailable", err)
	}
	if m.Pending() != 2 {
		t.Fatalf("pending = %d after failed flush, want 2 (batch retained)", m.Pending())
	}

	// Daemon restarts on the same address (fresh process, same DB).
	d2 := NewDaemon(db)
	if _, err := d2.Start(addr); err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer d2.Close()

	if err := m.Flush(); err != nil {
		t.Fatalf("flush after restart: %v", err)
	}
	if m.Pending() != 0 {
		t.Errorf("pending = %d, want 0", m.Pending())
	}
	if db.Len() != 5 {
		t.Errorf("db has %d records, want 5", db.Len())
	}
	if v := reg.Counter(telemetry.MetricAgentReconnectsTotal, telemetry.L("agent", "monitor")).Value(); v == 0 {
		t.Error("reconnect counter is 0; monitor never counted the redial")
	}
}

// TestMonitorSurvivesFaultInjection: with heavy seeded drops on the
// daemon's listener, every flush still lands exactly once.
func TestMonitorSurvivesFaultInjection(t *testing.T) {
	db, err := replaydb.Open(replaydb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	d := NewDaemon(db)
	fn := faultnet.New(faultnet.Config{Seed: 42, DropRate: 0.2})
	d.WrapListener = fn.Listener
	addr, err := d.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	reg := telemetry.NewRegistry()
	pol := fastPolicy()
	pol.MaxAttempts = 10
	m, err := NewMonitor(addr, "pic", 4, WithRetryPolicy(pol), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	const total = 40
	for i := 0; i < total; i++ {
		if err := m.Observe(sampleResult("pic", i), 1, 0); err != nil {
			t.Fatalf("observe %d: %v", i, err)
		}
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if db.Len() != total {
		t.Errorf("db has %d records, want %d (no loss, no duplicates)", db.Len(), total)
	}
	if fn.Stats().Drops == 0 {
		t.Error("fault injector dropped nothing; test exercised no faults")
	}
	if v := reg.Counter(telemetry.MetricAgentRetriesTotal, telemetry.L("agent", "monitor")).Value(); v == 0 {
		t.Error("retry counter is 0 despite injected drops")
	}
}
