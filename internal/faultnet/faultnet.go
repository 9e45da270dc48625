// Package faultnet wraps net.Listener and net.Conn with deterministic,
// seeded fault injection: dropped connections, added latency, partial
// writes, and mid-stream disconnects. It exists so that every layer of the
// agents plane — monitors, the query client, control agents, and the
// Interface Daemon — can be exercised under the network failures a real
// deployment sees ("Geomancy and the target system are separate entities"
// communicating only over the network, §V-A) without flaky,
// timing-dependent tests.
//
// Determinism: every connection draws its fault decisions from a private
// rand.Rand seeded by (network seed, connection index). Connection indexes
// are assigned in Accept/Dial order, so as long as the code under test
// establishes connections in a deterministic order (the closed loop dials
// its agents sequentially), the exact same operations fail on the exact
// same connections run after run, regardless of goroutine scheduling.
package faultnet

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"geomancy/internal/rng"
)

// Config tunes a fault-injecting Network. All rates are probabilities in
// [0, 1] evaluated independently per I/O operation; the zero value injects
// nothing.
type Config struct {
	// Seed derives every connection's private fault stream.
	Seed int64
	// DropRate is the per-operation probability of severing the
	// connection mid-stream: the operation fails and the conn is closed,
	// exactly like a peer crash or a cut cable.
	DropRate float64
	// DelayRate is the per-operation probability of sleeping Delay before
	// the operation proceeds.
	DelayRate float64
	// Delay is the injected latency; default 1ms when DelayRate > 0.
	Delay time.Duration
	// PartialWriteRate is the per-write probability that only a prefix of
	// the buffer reaches the wire before the connection is severed — the
	// torn-message case stream decoders must survive.
	PartialWriteRate float64
}

func (c Config) withDefaults() Config {
	if c.Delay <= 0 {
		c.Delay = time.Millisecond
	}
	return c
}

// Stats counts the faults a Network has injected.
type Stats struct {
	Conns         uint64 // connections wrapped
	Drops         uint64 // connections severed mid-operation
	Delays        uint64 // operations delayed
	PartialWrites uint64 // writes truncated before severing
}

// Network is a shared fault-injection domain: every listener and dialer
// wrapped by one Network shares its config and stats, and each wrapped
// connection gets the next deterministic fault stream.
type Network struct {
	cfg Config

	connIndex atomic.Uint64
	drops     atomic.Uint64
	delays    atomic.Uint64
	partials  atomic.Uint64
}

// New builds a fault-injection domain from cfg.
func New(cfg Config) *Network {
	return &Network{cfg: cfg.withDefaults()}
}

// Stats snapshots the injected-fault counters.
func (n *Network) Stats() Stats {
	return Stats{
		Conns:         n.connIndex.Load(),
		Drops:         n.drops.Load(),
		Delays:        n.delays.Load(),
		PartialWrites: n.partials.Load(),
	}
}

// Listener wraps ln so every accepted connection injects faults.
func (n *Network) Listener(ln net.Listener) net.Listener {
	return &listener{Listener: ln, net: n}
}

// Wrap attaches the next deterministic fault stream to c.
func (n *Network) Wrap(c net.Conn) net.Conn {
	idx := n.connIndex.Add(1)
	// splitmix64-style scramble keeps per-connection streams decorrelated
	// even for adjacent indexes.
	seed := n.cfg.Seed ^ int64(idx*0x9E3779B97F4A7C15)
	return &conn{
		Conn: c,
		net:  n,
		rng:  rng.New(seed),
	}
}

type listener struct {
	net.Listener
	net *Network
}

func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.net.Wrap(c), nil
}

// errDropped is the error surfaced by an injected disconnect.
type errDropped struct{ op string }

func (e errDropped) Error() string {
	return fmt.Sprintf("faultnet: connection dropped during %s", e.op)
}

// Timeout and Temporary mark the error as non-timeout so callers treat it
// like a real peer reset, not a deadline.
func (errDropped) Timeout() bool   { return false }
func (errDropped) Temporary() bool { return false }

// conn injects faults on one connection. The rng is guarded by mu because
// reads and writes may run on different goroutines; within one side the
// operation order is the caller's, so the decision sequence stays
// deterministic for deterministic callers.
type conn struct {
	net.Conn
	net *Network

	mu      sync.Mutex
	rng     *rng.RNG
	dropped bool
}

// decide draws the fate of one operation: drop, delay, and (for writes)
// partial truncation.
func (c *conn) decide(write bool) (drop, delay, partial bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dropped {
		return true, false, false
	}
	cfg := c.net.cfg
	if cfg.DropRate > 0 && c.rng.Float64() < cfg.DropRate {
		c.dropped = true
		return true, false, false
	}
	if cfg.DelayRate > 0 && c.rng.Float64() < cfg.DelayRate {
		delay = true
	}
	if write && cfg.PartialWriteRate > 0 && c.rng.Float64() < cfg.PartialWriteRate {
		c.dropped = true
		partial = true
	}
	return false, delay, partial
}

func (c *conn) Read(p []byte) (int, error) {
	drop, delay, _ := c.decide(false)
	if drop {
		c.net.drops.Add(1)
		c.Conn.Close()
		return 0, errDropped{op: "read"}
	}
	if delay {
		c.net.delays.Add(1)
		time.Sleep(c.net.cfg.Delay)
	}
	return c.Conn.Read(p)
}

func (c *conn) Write(p []byte) (int, error) {
	drop, delay, partial := c.decide(true)
	if drop {
		c.net.drops.Add(1)
		c.Conn.Close()
		return 0, errDropped{op: "write"}
	}
	if delay {
		c.net.delays.Add(1)
		time.Sleep(c.net.cfg.Delay)
	}
	if partial {
		c.net.partials.Add(1)
		c.net.drops.Add(1)
		n := len(p) / 2
		if n > 0 {
			n, _ = c.Conn.Write(p[:n])
		}
		c.Conn.Close()
		return n, errDropped{op: "write"}
	}
	return c.Conn.Write(p)
}
