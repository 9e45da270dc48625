package agents

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"geomancy/internal/replaydb"
	"geomancy/internal/telemetry"
)

// peerScript plays the daemon for one request: conn and k index the
// connection and the request on it. It returns the replies to send and
// whether to sever the connection afterwards; no replies and no drop is a
// hung peer.
type peerScript func(conn, k int, req Envelope) (replies []Envelope, drop bool)

// scriptedPeer listens on loopback and answers every connection from
// script, recording the ID of each request it read.
type scriptedPeer struct {
	addr string
	mu   sync.Mutex
	ids  []uint64
}

func startScriptedPeer(t *testing.T, script peerScript) *scriptedPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	p := &scriptedPeer{addr: ln.Addr().String()}
	go func() {
		for n := 0; ; n++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			t.Cleanup(func() { conn.Close() })
			go func(n int) {
				c := newCodec(conn)
				for k := 0; ; k++ {
					var req Envelope
					if c.read(&req, time.Time{}) != nil {
						return
					}
					p.mu.Lock()
					p.ids = append(p.ids, req.ID)
					p.mu.Unlock()
					replies, drop := script(n, k, req)
					for i := range replies {
						c.write(&replies[i], time.Time{})
					}
					if drop {
						conn.Close()
						return
					}
				}
			}(n)
		}
	}()
	return p
}

func (p *scriptedPeer) seen() []uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]uint64(nil), p.ids...)
}

// answer is the well-formed reply to req, tagged so a test can tell which
// reply the caller was handed; shift moves its ID into the past.
func answer(req Envelope, tag string, shift uint64) Envelope {
	if req.Type == TypeMetrics {
		return Envelope{Type: TypeMetricsAck, ID: req.ID - shift}
	}
	return Envelope{Type: TypeRecentReply, ID: req.ID - shift, Reports: []replaydb.AccessRecord{{Device: tag}}}
}

// TestSessionFaultScripts runs each transport fault once against the
// shared body, through both of its callers: a monitor shipping a batch and
// the engine store issuing a query take the same retry loop, so every row
// must hold for both.
func TestSessionFaultScripts(t *testing.T) {
	type outcome int
	const (
		ok outcome = iota
		fatal
		unavailable
	)
	cases := []struct {
		name       string
		attempts   int
		ioTimeout  time.Duration
		script     peerScript
		want       outcome
		retries    uint64
		reconnects uint64
	}{
		{
			name: "hung peer times out within IOTimeout", attempts: 2, ioTimeout: 50 * time.Millisecond,
			script: func(int, int, Envelope) ([]Envelope, bool) { return nil, false },
			want:   unavailable, retries: 1, reconnects: 1,
		},
		{
			name: "stale reply with a lower ID is drained", attempts: 3, ioTimeout: 2 * time.Second,
			script: func(_, _ int, req Envelope) ([]Envelope, bool) {
				return []Envelope{answer(req, "stale", 1), answer(req, "fresh", 0)}, false
			},
			want: ok,
		},
		{
			name: "daemon TypeError does not burn the retry budget", attempts: 3, ioTimeout: 2 * time.Second,
			script: func(conn, k int, req Envelope) ([]Envelope, bool) {
				if conn == 0 && k == 0 {
					return []Envelope{{Type: TypeError, Error: "disk full"}}, false
				}
				return []Envelope{answer(req, "fresh", 0)}, false
			},
			want: fatal,
		},
		{
			name: "exhausted budget is ErrUnavailable", attempts: 3, ioTimeout: 2 * time.Second,
			script: func(int, int, Envelope) ([]Envelope, bool) { return nil, true },
			want:   unavailable, retries: 2, reconnects: 2,
		},
		{
			name: "redial after a daemon restart counts one reconnect", attempts: 3, ioTimeout: 2 * time.Second,
			script: func(conn, _ int, req Envelope) ([]Envelope, bool) {
				if conn == 0 {
					return nil, true
				}
				return []Envelope{answer(req, "fresh", 0)}, false
			},
			want: ok, retries: 1, reconnects: 1,
		},
	}
	for _, tc := range cases {
		for _, kind := range []string{"monitor", "client"} {
			t.Run(tc.name+"/"+kind, func(t *testing.T) {
				peer := startScriptedPeer(t, tc.script)
				reg := telemetry.NewRegistry()
				opts := []Option{WithMetrics(reg), WithRetryPolicy(RetryPolicy{
					MaxAttempts: tc.attempts, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, IOTimeout: tc.ioTimeout,
				})}

				var m *Monitor
				var st *RemoteStore
				var op func() error
				if kind == "monitor" {
					var err error
					if m, err = NewMonitor(peer.addr, "pic", 8, opts...); err != nil {
						t.Fatal(err)
					}
					defer m.s.close()
					for i := 0; i < 2; i++ {
						m.Observe(sampleResult("pic", i), 1, 0)
					}
					op = m.Flush
				} else {
					var err error
					if st, err = DialRemoteStore(peer.addr, opts...); err != nil {
						t.Fatal(err)
					}
					defer st.Close()
					op = func() error {
						recs, err := st.query(Envelope{Type: TypeRecentQuery, N: 1})
						if err == nil && (len(recs) != 1 || recs[0].Device != "fresh") {
							t.Errorf("query returned %+v, want the fresh reply only", recs)
						}
						return err
					}
				}

				start := time.Now()
				err := op()
				elapsed := time.Since(start)
				var outage interface{ Unavailable() bool }
				switch tc.want {
				case ok:
					if err != nil {
						t.Fatalf("err = %v, want success", err)
					}
				case fatal:
					if err == nil || errors.Is(err, ErrUnavailable) {
						t.Fatalf("err = %v, want the daemon's error, not an outage", err)
					}
				case unavailable:
					if !errors.Is(err, ErrUnavailable) || !errors.As(err, &outage) || !outage.Unavailable() {
						t.Fatalf("err = %v, want ErrUnavailable with Unavailable()", err)
					}
					if limit := time.Duration(tc.attempts)*tc.ioTimeout + time.Second; elapsed > limit {
						t.Errorf("took %v, want under %v: the deadline did not bound the attempts", elapsed, limit)
					}
				}
				if got := reg.Counter(telemetry.MetricAgentRetriesTotal, telemetry.L("agent", kind)).Value(); got != tc.retries {
					t.Errorf("retries = %d, want %d", got, tc.retries)
				}
				if got := reg.Counter(telemetry.MetricAgentReconnectsTotal, telemetry.L("agent", kind)).Value(); got != tc.reconnects {
					t.Errorf("reconnects = %d, want %d", got, tc.reconnects)
				}
				if m == nil {
					return
				}

				// The monitor retains a failed batch under its ID and
				// replays it under that same ID.
				if tc.want == ok {
					if m.Pending() != 0 || m.batchID != 0 {
						t.Errorf("after a successful flush: pending %d, batch ID %d, want 0 and 0", m.Pending(), m.batchID)
					}
					return
				}
				if m.Pending() != 2 || m.batchID != 1 {
					t.Fatalf("after a failed flush: pending %d, batch ID %d, want the batch kept under ID 1", m.Pending(), m.batchID)
				}
				if tc.want == fatal {
					if err := m.Flush(); err != nil {
						t.Fatalf("replay after the daemon recovered: %v", err)
					}
					if seen := peer.seen(); len(seen) != 2 || seen[0] != 1 || seen[1] != 1 {
						t.Errorf("peer saw batch IDs %v, want the same batch twice under ID 1", seen)
					}
				}
			})
		}
	}
}

// TestPushLayoutTimesOutEverySilentAgent: the shared ack deadline must
// release the push for every agent still silent when it fires, not only
// the first one waited on — and must still credit a live agent whose ack
// arrived while the silent ones were being waited on.
func TestPushLayoutTimesOutEverySilentAgent(t *testing.T) {
	d, _, addr := startDaemon(t)
	d.AckTimeout = 100 * time.Millisecond
	rawControl(t, addr)
	rawControl(t, addr)
	waitFor(t, "2 silent registrations", func() bool { return d.ControlCount() == 2 })
	live, err := NewControl(addr, func(int64, string) (bool, error) { return true, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	waitFor(t, "the live registration", func() bool { return d.ControlCount() == 3 })

	type result struct {
		moved    int
		outcomes []pushOutcome
		err      error
	}
	done := make(chan result, 1)
	go func() {
		moved, outcomes, err := d.push(map[int64]string{1: "a"})
		done <- result{moved, outcomes, err}
	}()
	select {
	case r := <-done:
		if !errors.Is(r.err, ErrUnavailable) {
			t.Errorf("err = %v, want ErrUnavailable", r.err)
		}
		if len(r.outcomes) != 3 || r.moved != 1 {
			t.Fatalf("moved %d with %d outcomes, want the live agent's 1 move and 3 outcomes", r.moved, len(r.outcomes))
		}
		for i, oc := range r.outcomes {
			if silent := i < 2; silent != errors.Is(oc.err, ErrUnavailable) {
				t.Errorf("agent %d: err = %v, want a timeout for the two silent agents only", oc.agent, oc.err)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("push still waiting long after AckTimeout")
	}
}
