package agents

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"geomancy/internal/replaydb"
	"geomancy/internal/rng"
	"geomancy/internal/telemetry"
)

// Daemon is the Interface Daemon: it accepts monitoring-agent telemetry,
// stores it in the ReplayDB, serves recent-access queries, and pushes
// layout updates to registered control agents.
type Daemon struct {
	db *replaydb.DB

	mu       sync.Mutex
	ln       net.Listener
	controls map[uint64]*controlConn
	conns    map[net.Conn]struct{}
	nextID   uint64
	nextPush uint64
	// lastSeq holds the highest acknowledged batch ID per monitor (the
	// envelope's From). Batch IDs are monotonic per monitor and survive
	// reconnects, so a replayed batch whose original delivery succeeded
	// is detected here and acknowledged without storing duplicates.
	lastSeq map[string]uint64
	closed  bool
	wg      sync.WaitGroup

	// AckTimeout bounds how long PushLayout waits for each control agent.
	AckTimeout time.Duration

	// WrapListener, when set before Start, wraps the accept listener —
	// the hook fault-injection harnesses (internal/faultnet) use to
	// perturb every agent connection.
	WrapListener func(net.Listener) net.Listener

	// Connection-handling errors are not logged; they count on
	// geomancy_daemon_errors_total.
	metrics daemonMetrics
}

// daemonMetrics bundles the daemon's pre-resolved telemetry handles; nil
// handles no-op until SetMetrics installs a registry.
type daemonMetrics struct {
	connsTotal   *telemetry.Counter
	connsOpen    *telemetry.Gauge
	errorsTotal  *telemetry.Counter
	reportsTotal *telemetry.Counter
	layoutPushes *telemetry.Counter
	duplicates   *telemetry.Counter
	rpcMetrics   *telemetry.Histogram
	rpcRecent    *telemetry.Histogram
	rpcPush      *telemetry.Histogram
}

// controlConn is one registered control agent: serve forwards its layout
// acks to whichever push is waiting on them.
type controlConn struct {
	c    *codec
	acks chan Envelope
}

// NewDaemon returns a daemon backed by db.
func NewDaemon(db *replaydb.DB) *Daemon {
	return &Daemon{
		db:         db,
		controls:   make(map[uint64]*controlConn),
		conns:      make(map[net.Conn]struct{}),
		lastSeq:    make(map[string]uint64),
		AckTimeout: 5 * time.Second,
	}
}

// SetMetrics wires the daemon's connection and RPC-latency instrumentation
// to reg. Call before Start; handles are pre-registered so every metric
// exports (at zero) from the first scrape.
func (d *Daemon) SetMetrics(reg *telemetry.Registry) {
	d.metrics = daemonMetrics{
		connsTotal:   reg.Counter(telemetry.MetricDaemonConnectionsTotal),
		connsOpen:    reg.Gauge(telemetry.MetricDaemonConnectionsOpen),
		errorsTotal:  reg.Counter(telemetry.MetricDaemonErrorsTotal),
		reportsTotal: reg.Counter(telemetry.MetricDaemonReportsTotal),
		layoutPushes: reg.Counter(telemetry.MetricDaemonLayoutPushes),
		duplicates:   reg.Counter(telemetry.MetricDaemonDuplicateBatches),
		rpcMetrics:   reg.Histogram(telemetry.MetricDaemonRPCSeconds, telemetry.DefDurationBuckets, telemetry.L("type", TypeMetrics.String())),
		rpcRecent:    reg.Histogram(telemetry.MetricDaemonRPCSeconds, telemetry.DefDurationBuckets, telemetry.L("type", TypeRecentQuery.String())),
		rpcPush:      reg.Histogram(telemetry.MetricDaemonRPCSeconds, telemetry.DefDurationBuckets, telemetry.L("type", TypeLayout.String())),
	}
}

// Start listens on addr (e.g. "127.0.0.1:0") and serves connections until
// Close. It returns the bound address.
//
//geomancy:allow ctxflow Listen binds and returns immediately; the daemon's lifetime is owned by Close
func (d *Daemon) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("agents: daemon listen: %w", err)
	}
	if d.WrapListener != nil {
		ln = d.WrapListener(ln)
	}
	d.mu.Lock()
	d.ln = ln
	d.mu.Unlock()
	d.wg.Add(1)
	go d.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (d *Daemon) acceptLoop(ln net.Listener) {
	defer d.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if !errors.Is(err, net.ErrClosed) {
				d.metrics.errorsTotal.Inc()
			}
			return // listener closed
		}
		d.metrics.connsTotal.Inc()
		d.metrics.connsOpen.Add(1)
		d.wg.Add(1)
		go d.serve(conn)
	}
}

// serve handles one connection: a stream of envelopes, each answered (if
// its type has an answer) through the connection's codec. A frame the
// codec refuses — malformed, oversized, or of another wire version — is
// answered with one TypeError saying why, and the connection is dropped.
func (d *Daemon) serve(conn net.Conn) {
	defer d.wg.Done()
	defer conn.Close()
	defer d.metrics.connsOpen.Add(-1)
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.conns[conn] = struct{}{}
	d.mu.Unlock()
	c := newCodec(conn)
	var registered *controlConn
	var regID uint64
	defer func() {
		d.mu.Lock()
		delete(d.conns, conn)
		if registered != nil {
			delete(d.controls, regID)
		}
		d.mu.Unlock()
	}()
	for {
		var env, reply Envelope
		if err := c.read(&env, time.Time{}); err != nil {
			// EOF is the peer's orderly close; anything else is a broken
			// or malformed stream worth counting.
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				d.metrics.errorsTotal.Inc()
				if errors.Is(err, ErrFrame) || errors.Is(err, ErrVersion) {
					c.write(&Envelope{Type: TypeError, Error: err.Error()}, time.Time{})
				}
			}
			return
		}
		start := time.Now() //geomancy:nondeterministic telemetry timestamp for the RPC-latency histogram
		switch env.Type {
		case TypeMetrics:
			reply = d.ingest(&env, start)
		case TypeRegisterControl:
			if registered == nil {
				registered = &controlConn{c: c, acks: make(chan Envelope, 16)}
				d.mu.Lock()
				d.nextID++
				regID = d.nextID
				d.controls[regID] = registered
				d.mu.Unlock()
			}
		case TypeLayoutAck:
			if registered != nil {
				select {
				case registered.acks <- env:
				default: // ack buffer full; drop rather than block the wire
				}
			}
		case TypeRecentQuery:
			reply = d.recent(&env)
			d.metrics.rpcRecent.Observe(time.Since(start).Seconds()) //geomancy:nondeterministic telemetry timestamp for the RPC-latency histogram
		default:
			reply = Envelope{Type: TypeError, Error: fmt.Sprintf("unexpected message type %s", env.Type)}
		}
		if reply.Type == 0 {
			continue
		}
		if reply.Type == TypeError {
			d.metrics.errorsTotal.Inc()
		}
		if err := c.write(&reply, time.Time{}); err != nil {
			d.metrics.errorsTotal.Inc()
			return
		}
		if reply.Type == TypeError && env.Type == TypeMetrics {
			return // the batch may be half stored; make the monitor redial and replay
		}
	}
}

// recent answers one recent-window query. A query that names neither a
// file nor a device, or asks for more records than the database retains
// (its replaydb.Horizon), is one the database cannot answer: it gets a
// TypeError.
func (d *Daemon) recent(env *Envelope) Envelope {
	h := d.db.Horizon()
	keep := h.PerDevice
	switch {
	case env.FileID != 0:
		keep = h.PerFile
	case env.Device == "":
		return Envelope{Type: TypeError, Error: "recent query names neither a file nor a device"}
	}
	if keep > 0 && env.N > keep {
		return Envelope{Type: TypeError, Error: fmt.Sprintf("recent query for %d records; the database retains %d", env.N, keep)}
	}
	// The records are encoded from the database as the reply is framed, so
	// no copy of the window is made.
	return Envelope{Type: TypeRecentReply, ID: env.ID,
		window: recentWindow{db: d.db, device: env.Device, fileID: env.FileID, n: env.N}}
}

// ingest stores one telemetry batch and returns its ack, or a TypeError
// when the database refuses a record (replaydb.ErrInvalidRecord among them).
func (d *Daemon) ingest(env *Envelope, start time.Time) Envelope {
	ack := Envelope{Type: TypeMetricsAck, ID: env.ID, N: len(env.Reports)}
	// Dedupe replayed batches: a monitor that never saw the ack re-sends
	// the batch under its original (From, ID). Storing it again would
	// double-count the telemetry, so acknowledge without appending.
	keyed := env.From != "" && env.ID != 0
	if keyed {
		d.mu.Lock()
		dup := env.ID <= d.lastSeq[env.From]
		d.mu.Unlock()
		if dup {
			d.metrics.duplicates.Inc()
			return ack
		}
	}
	// A report the database would refuse refuses the whole batch before any
	// of it is stored, so a replay of the batch cannot double-count a prefix.
	for i := range env.Reports {
		if err := env.Reports[i].Validate(); err != nil {
			return Envelope{Type: TypeError, Error: fmt.Sprintf("report %d: %v", i, err)}
		}
	}
	for i := range env.Reports {
		if _, err := d.db.AppendAccess(env.Reports[i]); err != nil {
			return Envelope{Type: TypeError, Error: err.Error()}
		}
	}
	if keyed {
		d.mu.Lock()
		if env.ID > d.lastSeq[env.From] {
			d.lastSeq[env.From] = env.ID
		}
		d.mu.Unlock()
	}
	d.metrics.reportsTotal.Add(uint64(len(env.Reports)))
	d.metrics.rpcMetrics.Observe(time.Since(start).Seconds()) //geomancy:nondeterministic telemetry timestamp for the RPC-latency histogram
	return ack
}

// ControlCount returns the number of registered control agents.
func (d *Daemon) ControlCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.controls)
}

// pushOutcome reports how one control agent handled a layout push.
type pushOutcome struct {
	agent uint64 // the daemon-assigned registration ID
	moved int    // files the agent reports moving
	// err is the agent's failure, a transport error, or an ack timeout;
	// nil for a clean application.
	err error
}

// PushLayout broadcasts a layout to every registered control agent and
// waits (up to AckTimeout overall) for their acknowledgements. It returns
// the total number of files the agents report moving.
//
// Entries go out sorted by FileID, so the wire transcript of a fixed-seed
// run is identical run-to-run (the layout map's iteration order is not).
// Every agent is contacted even when an earlier one fails — an agent that
// silently kept a stale layout is worse than an aggregated error — and
// the error (if any) reports each failing agent's outcome. Acks are
// correlated by a per-push ID so a late ack from a previous, timed-out
// push is never credited to this one.
func (d *Daemon) PushLayout(layout map[int64]string) (int, error) {
	moved, _, err := d.push(layout)
	return moved, err
}

// push is the one push body, with the per-agent outcomes exposed.
func (d *Daemon) push(layout map[int64]string) (int, []pushOutcome, error) {
	start := time.Now() //geomancy:nondeterministic telemetry timestamp, write deadline and RPC-latency histogram; never reaches wire or layout output
	env := Envelope{Type: TypeLayout, Layout: make([]LayoutEntry, 0, len(layout))}
	for id, dev := range layout {
		env.Layout = append(env.Layout, LayoutEntry{FileID: id, Device: dev})
	}
	sort.Slice(env.Layout, func(i, j int) bool { return env.Layout[i].FileID < env.Layout[j].FileID })

	d.mu.Lock()
	d.nextPush++
	env.ID = d.nextPush
	outcomes := make([]pushOutcome, 0, len(d.controls))
	for id := range d.controls {
		outcomes = append(outcomes, pushOutcome{agent: id})
	}
	sort.Slice(outcomes, func(i, j int) bool { return outcomes[i].agent < outcomes[j].agent })
	targets := make([]*controlConn, len(outcomes))
	for i := range outcomes {
		targets[i] = d.controls[outcomes[i].agent]
	}
	d.mu.Unlock()
	if len(targets) == 0 {
		d.metrics.errorsTotal.Inc()
		return 0, nil, markUnavailable(fmt.Errorf("agents: no control agents registered"))
	}

	// Write phase: contact every agent before waiting on any ack.
	for i, cc := range targets {
		if err := cc.c.write(&env, start.Add(d.AckTimeout)); err != nil {
			outcomes[i].err = markUnavailable(fmt.Errorf("push: %w", err))
		}
	}

	// Ack phase: one shared deadline so a slow agent cannot stretch the
	// wait to len(targets) × AckTimeout.
	expired := make(chan struct{})
	timer := time.AfterFunc(d.AckTimeout, func() { close(expired) })
	defer timer.Stop()
	var moved int
	var errs []error
	for i, cc := range targets {
		oc := &outcomes[i]
		if oc.err == nil {
			oc.moved, oc.err = d.awaitAck(cc, env.ID, expired)
			moved += oc.moved
		}
		if oc.err != nil {
			d.metrics.errorsTotal.Inc()
			errs = append(errs, fmt.Errorf("agents: control agent %d: %w", oc.agent, oc.err))
		}
	}
	if len(errs) > 0 {
		return moved, outcomes, errors.Join(errs...)
	}
	d.metrics.layoutPushes.Inc()
	d.metrics.rpcPush.Observe(time.Since(start).Seconds()) //geomancy:nondeterministic telemetry timestamp for the RPC-latency histogram
	return moved, outcomes, nil
}

// awaitAck waits for cc's ack of push id, or for expired to close. The
// deadline is shared across agents, so an ack that arrived while an earlier
// agent was being waited on still counts after it fires.
func (d *Daemon) awaitAck(cc *controlConn, id uint64, expired <-chan struct{}) (int, error) {
	for {
		var ack Envelope
		select {
		case ack = <-cc.acks:
		case <-expired:
			select {
			case ack = <-cc.acks:
			default:
				return 0, markUnavailable(fmt.Errorf("ack timed out after %v", d.AckTimeout))
			}
		}
		if ack.ID != 0 && ack.ID != id {
			continue // stale ack from a superseded push
		}
		if ack.Error != "" {
			return ack.Moved, fmt.Errorf("apply: %s", ack.Error)
		}
		return ack.Moved, nil
	}
}

// PushLayoutRetry is PushLayout with policy's retry budget. Replaying a
// push is safe — layout application is idempotent (re-homing a file onto
// its current device is a no-op) and acks are correlated per push — so a
// transient transport fault need not cost the caller a decision cycle.
// Mover failures (the target system refusing a move) are not retried:
// repeating the request would not change the answer.
func (d *Daemon) PushLayoutRetry(layout map[int64]string, policy RetryPolicy, jitter *rng.RNG) (int, error) {
	policy = policy.withDefaults()
	var lastErr error
	for attempt := 1; attempt <= policy.MaxAttempts; attempt++ {
		if attempt > 1 {
			time.Sleep(policy.backoff(attempt-1, jitter))
		}
		moved, _, err := d.push(layout)
		if err == nil {
			return moved, nil
		}
		lastErr = err
		if !errors.Is(err, ErrUnavailable) {
			return moved, err
		}
	}
	return 0, lastErr
}

// Close stops the listener and waits for connection handlers to drain.
func (d *Daemon) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	ln := d.ln
	conns := make([]net.Conn, 0, len(d.conns))
	//geomancy:nondeterministic shutdown path: every connection is closed, so close order cannot reach wire or layout output
	for c := range d.conns {
		conns = append(conns, c)
	}
	d.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	d.wg.Wait()
	return err
}
