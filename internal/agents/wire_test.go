package agents

import (
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"geomancy/internal/replaydb"
	"geomancy/internal/telemetry"
)

// foreignVersion returns env's frame with the version byte of another build.
func foreignVersion(env Envelope) []byte {
	frame := appendEnvelope(nil, &env)
	frame[4] = wireVersion + 1
	return frame
}

// foreignPeer listens on loopback as a daemon of another wire version: it
// answers whatever arrives on each connection with one foreign-version
// frame. accepted counts connections, so a test can tell a retry or a
// reconnect happened.
func foreignPeer(t *testing.T, reply Envelope) (addr string, accepted *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	accepted = new(atomic.Int64)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			t.Cleanup(func() { conn.Close() })
			go func() {
				if _, err := conn.Read(make([]byte, 1<<16)); err == nil {
					conn.Write(foreignVersion(reply))
				}
				io.Copy(io.Discard, conn)
			}()
		}
	}()
	return ln.Addr().String(), accepted
}

// TestWireVersionMismatch: a frame whose version byte is not this build's is
// refused with ErrVersion at every reader — counted and answered by the
// daemon without touching the database, returned by a session without
// spending its retry budget, and the end of a control agent's reconnecting.
func TestWireVersionMismatch(t *testing.T) {
	t.Run("daemon refuses, counts and applies nothing", func(t *testing.T) {
		db := newTestDB(t)
		d := NewDaemon(db)
		reg := telemetry.NewRegistry()
		d.SetMetrics(reg)
		addr, err := d.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		peer := framePeer(t, addr)
		good := Envelope{Type: TypeMetrics, From: "pic", ID: 1, Reports: []replaydb.AccessRecord{{Device: "pic", FileID: 1}}}
		if err := peer.write(&good, time.Time{}); err != nil {
			t.Fatal(err)
		}
		foreign := foreignVersion(Envelope{Type: TypeMetrics, From: "pic", ID: 2, Reports: []replaydb.AccessRecord{{Device: "pic", FileID: 2}, {Device: "pic", FileID: 3}}})
		if _, err := peer.conn.Write(foreign); err != nil {
			t.Fatal(err)
		}
		var reply Envelope
		if err := peer.read(&reply, time.Now().Add(5*time.Second)); err != nil || reply.Type != TypeMetricsAck || reply.N != 1 {
			t.Fatalf("first batch: reply %+v, err %v, want its ack", reply, err)
		}
		if err := peer.read(&reply, time.Now().Add(5*time.Second)); err != nil || reply.Type != TypeError || !strings.Contains(reply.Error, "version") {
			t.Fatalf("foreign frame: reply %+v, err %v, want a TypeError naming the version", reply, err)
		}
		if err := peer.read(&reply, time.Now().Add(5*time.Second)); err != io.EOF {
			t.Fatalf("after the refusal: err = %v, want the connection dropped", err)
		}
		if got := db.Len(); got != 1 {
			t.Errorf("db holds %d records, want only the first batch's 1", got)
		}
		if got := reg.Counter(telemetry.MetricDaemonErrorsTotal).Value(); got != 1 {
			t.Errorf("errors_total = %d, want 1", got)
		}
	})

	t.Run("session returns ErrVersion without retrying", func(t *testing.T) {
		addr, accepted := foreignPeer(t, Envelope{Type: TypeMetricsAck, ID: 1})
		reg := telemetry.NewRegistry()
		m, err := NewMonitor(addr, "pic", 8, WithMetrics(reg), WithRetryPolicy(fastPolicy()))
		if err != nil {
			t.Fatal(err)
		}
		defer m.s.close()
		m.Observe(sampleResult("pic", 0), 1, 0)
		err = m.Flush()
		if !errors.Is(err, ErrVersion) || errors.Is(err, ErrUnavailable) {
			t.Fatalf("flush: err = %v, want ErrVersion and not an outage", err)
		}
		if got := reg.Counter(telemetry.MetricAgentRetriesTotal, telemetry.L("agent", "monitor")).Value(); got != 0 {
			t.Errorf("retries = %d, want 0: another build cannot be retried into agreement", got)
		}
		if got := accepted.Load(); got != 1 {
			t.Errorf("peer accepted %d connections, want 1", got)
		}
		if m.Pending() != 1 || m.batchID != 1 {
			t.Errorf("pending %d under batch ID %d, want the batch kept under ID 1", m.Pending(), m.batchID)
		}
	})

	t.Run("control agent stops reconnecting", func(t *testing.T) {
		addr, accepted := foreignPeer(t, Envelope{Type: TypeError, Error: "version"})
		c, err := NewControl(addr, func(int64, string) (bool, error) { return false, nil }, WithRetryPolicy(fastPolicy()))
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-c.done:
		case <-time.After(5 * time.Second):
			t.Fatal("the control agent is still running against a daemon of another version")
		}
		if got := accepted.Load(); got != 1 {
			t.Errorf("peer accepted %d connections, want 1 (no reconnect)", got)
		}
		c.Close()
	})
}

// TestOversizedFrameIsNotSent: the cap applies to what a codec writes as
// well as to what it reads, and a refused frame leaves the stream intact.
func TestOversizedFrameIsNotSent(t *testing.T) {
	_, _, addr := startDaemon(t)
	peer := framePeer(t, addr)
	big := Envelope{Type: TypeError, Error: strings.Repeat("x", maxFrame)}
	if err := peer.write(&big, time.Time{}); !errors.Is(err, ErrFrame) {
		t.Fatalf("writing a %d-byte frame: err = %v, want ErrFrame", maxFrame+frameFixed+4, err)
	}
	if err := peer.write(&Envelope{Type: TypeRecentQuery, ID: 1, Device: "pic", N: 1}, time.Time{}); err != nil {
		t.Fatal(err)
	}
	var reply Envelope
	if err := peer.read(&reply, time.Now().Add(5*time.Second)); err != nil || reply.Type != TypeRecentReply || reply.ID != 1 {
		t.Fatalf("query after the refused write: reply %+v, err %v", reply, err)
	}
}

// TestRoundTripAllocations pins the steady-state cost of the path
// deployed ingest spends its time on: one 32-report batch observed,
// framed, shipped, decoded, stored and acknowledged allocates at most four
// times, both ends together (the JSON decoder alone made eighty). What is
// left is the database's own amortised index and chunk growth.
func TestRoundTripAllocations(t *testing.T) {
	_, db, addr := startDaemon(t)
	m, err := NewMonitor(addr, "pic", 32)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	res := sampleResult("pic", 0)
	batch := func() {
		for i := 0; i < 32; i++ {
			if err := m.Observe(res, 1, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 64; i++ { // buffers and indexes reach their working size
		batch()
	}
	n := testing.AllocsPerRun(200, batch)
	t.Logf("%v allocations per 32-report round trip", n)
	if n > 4 {
		t.Errorf("a 32-report round trip allocates %v times, want at most 4", n)
	}
	if want := (64 + 201) * 32; db.Len() != want {
		t.Errorf("db holds %d records, want %d", db.Len(), want)
	}
}

// TestRecentReplyAllocations pins what one recent-window query costs, both
// ends together: the daemon encodes the window's records from the
// database in place, into the connection's reused frame buffer, and the
// peer decodes them into its reused report slice, so neither end copies a
// window — a 2 000-record device window and a 500-record file window,
// queried and read back, allocate at most two objects and under a
// kilobyte per query in the steady state.
func TestRecentReplyAllocations(t *testing.T) {
	_, db, addr := startDaemon(t)
	for i := 0; i < 2500; i++ {
		res := sampleResult("pic", i)
		res.FileID = int64(i%4 + 1)
		if _, err := db.AppendAccess(replaydb.FromAccess(res, 1, 0)); err != nil {
			t.Fatal(err)
		}
	}
	queries := []Envelope{
		{Type: TypeRecentQuery, ID: 1, Device: "pic", N: 2000},
		{Type: TypeRecentQuery, ID: 2, FileID: 3, N: 500},
	}
	// The frame is the one a copy of the window makes, byte for byte.
	for _, q := range queries {
		copied := Envelope{Type: TypeRecentReply, ID: q.ID, Reports: db.RecentByDevice(q.Device, q.N)}
		if q.FileID != 0 {
			copied.Reports = db.RecentByFile(q.FileID, q.N)
		}
		inPlace := Envelope{Type: TypeRecentReply, ID: q.ID, window: recentWindow{db: db, device: q.Device, fileID: q.FileID, n: q.N}}
		if !bytes.Equal(appendEnvelope(nil, &inPlace), appendEnvelope(nil, &copied)) {
			t.Fatalf("query %d: the in-place frame differs from the copied window's", q.ID)
		}
	}
	peer := framePeer(t, addr)
	ask := func() {
		for i := range queries {
			if err := peer.write(&queries[i], time.Time{}); err != nil {
				t.Fatal(err)
			}
			var reply Envelope
			if err := peer.read(&reply, time.Time{}); err != nil {
				t.Fatal(err)
			}
			if reply.Type != TypeRecentReply || len(reply.Reports) != queries[i].N {
				t.Fatalf("query %d: reply %s with %d records, want %d", i, reply.Type, len(reply.Reports), queries[i].N)
			}
		}
	}
	for i := 0; i < 8; i++ { // buffers reach their working size
		ask()
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		ask()
	}
	runtime.ReadMemStats(&after)
	perQuery := float64(after.TotalAlloc-before.TotalAlloc) / (runs * float64(len(queries)))
	objects := testing.AllocsPerRun(runs, ask) / float64(len(queries))
	t.Logf("%.0f bytes, %.1f objects per recent query", perQuery, objects)
	if perQuery > 1024 || objects > 2 {
		t.Errorf("a recent query allocates %.0f bytes in %.1f objects, want under 1024 bytes in at most 2", perQuery, objects)
	}
}
