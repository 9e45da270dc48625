package agents

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Mover executes one file movement on the target system. It reports
// whether the file actually moved (re-homing a file onto its current
// device is a successful no-op).
type Mover func(fileID int64, device string) (moved bool, err error)

// Control is a control agent: it registers with the Interface Daemon,
// receives layout updates, executes them via its Mover, and acknowledges
// with the number of files moved. Agents "do not interfere with the
// system's activities except for instructing the target system to move
// data in the background" (§V-A).
//
// Failure model: when the daemon connection breaks, the agent redials and
// re-registers with exponential backoff, indefinitely, until Close — a
// long-lived agent on the target system must outlive daemon restarts.
// Layout application is idempotent (moving a file to the device it is
// already on is a no-op), so a push replayed after a reconnect is safe.
type Control struct {
	mover Mover
	s     *session // registration and ack writes; the loop below reads

	mu      sync.Mutex
	applied int // total files moved over the agent's lifetime

	stop     chan struct{} // closed by Close; interrupts reconnect backoff
	stopOnce sync.Once
	done     chan struct{} // closed when the receive loop exits
}

// NewControl dials the daemon, registers, and starts applying layout
// pushes in the background.
func NewControl(addr string, mover Mover, opts ...Option) (*Control, error) {
	if mover == nil {
		return nil, fmt.Errorf("agents: control agent needs a mover")
	}
	c := &Control{
		mover: mover,
		s:     newSession(addr, "control", 2027, opts),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	conn, err := c.register()
	if err != nil {
		return nil, err
	}
	go c.run(conn)
	return c, nil
}

// register announces the agent on the session's connection (dialing one if
// needed) and returns that connection to receive pushes on.
func (c *Control) register() (*codec, error) {
	conn, err := c.s.send(&Envelope{Type: TypeRegisterControl})
	if err != nil {
		return nil, fmt.Errorf("agents: control register: %w", err)
	}
	return conn, nil
}

// run applies layout pushes, reconnecting on connection loss until Close or
// until the daemon turns out to speak another wire version.
func (c *Control) run(conn *codec) {
	defer close(c.done)
	for conn != nil {
		err := c.serve(conn)
		c.s.mu.Lock()
		c.s.dropLocked()
		c.s.mu.Unlock()
		if errors.Is(err, ErrVersion) {
			return // the daemon is another build; reconnecting cannot help
		}
		conn = c.reconnect()
	}
}

// serve applies pushes from one connection until it breaks, and returns
// what broke it.
func (c *Control) serve(conn *codec) error {
	for {
		var env Envelope
		if err := conn.read(&env, time.Time{}); err != nil {
			return err
		}
		if env.Type != TypeLayout {
			continue
		}
		ack := Envelope{Type: TypeLayoutAck, ID: env.ID}
		for _, entry := range env.Layout {
			didMove, err := c.mover(entry.FileID, entry.Device)
			if err != nil {
				// Keep applying the rest; report the first failure.
				if ack.Error == "" {
					ack.Error = err.Error()
				}
				continue
			}
			if didMove {
				ack.Moved++
			}
		}
		c.mu.Lock()
		c.applied += ack.Moved
		c.mu.Unlock()
		if _, err := c.s.send(&ack); err != nil {
			return err
		}
	}
}

// reconnect redials-and-reregisters with backoff until it succeeds or the
// agent is closed (nil).
func (c *Control) reconnect() *codec {
	for attempt := 1; ; attempt++ {
		select {
		case <-c.stop:
			return nil
		case <-time.After(c.s.policy.backoff(attempt, c.s.rng)):
		}
		c.s.met.retries.Inc()
		conn, err := c.register()
		if err == nil {
			return conn
		}
		if errors.Is(err, net.ErrClosed) {
			return nil
		}
	}
}

// Close disconnects the agent and waits for its loop to stop.
func (c *Control) Close() error {
	err := c.s.close()
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.done
	return err
}
