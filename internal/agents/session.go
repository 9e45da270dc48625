package agents

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"geomancy/internal/replaydb"
	"geomancy/internal/rng"
)

// codec frames one connection: it is the only place in the package where
// bytes meet the socket, and the only place a deadline is set. A frame is
// built whole in wbuf and leaves in one conn.Write; it is read into frame
// and decoded through dec into reports and layout, all reused, so a frame
// allocates only what it makes these grow by (dec interns the device and
// path names that repeat in every record). Each connection has one reader
// goroutine and any number of writers, which serialize on wmu. The deadline
// in force is remembered per direction so a loop that never asks for one
// (the daemon's and the control agent's receive loops, the daemon's acks)
// never makes the call.
type codec struct {
	conn    net.Conn
	br      *bufio.Reader
	frame   []byte
	dec     replaydb.Decoder
	reports []replaydb.AccessRecord // backs the last decoded Envelope.Reports
	layout  []LayoutEntry           // backs the last decoded Envelope.Layout
	rdl     time.Time               // read deadline in force
	wmu     sync.Mutex
	wbuf    []byte
	wdl     time.Time // write deadline in force
}

// readChunk is the socket read buffer, and the first step a frame buffer
// grows by: a 32-report batch is under 5 KB.
const readChunk = 8 << 10

func newCodec(conn net.Conn) *codec {
	return &codec{conn: conn, br: bufio.NewReaderSize(conn, readChunk)}
}

// read decodes the next frame into env, failing once deadline passes (the
// zero time waits forever, so a caller holding a lock must pass a non-zero
// deadline: the frame reads below are allowlisted for locksafe on that
// condition, which the analyzer cannot check). The length prefix is
// checked against maxFrame before anything is sized by it, and even then
// the frame buffer grows past its present capacity only by doubling as
// bytes arrive, so a frame costs memory in proportion to what the peer
// has sent of it. Any error means the stream position is lost and the
// caller drops the connection; io.EOF is the peer's orderly close between
// frames.
func (c *codec) read(env *Envelope, deadline time.Time) error {
	if !deadline.Equal(c.rdl) {
		if err := c.conn.SetReadDeadline(deadline); err != nil {
			return err
		}
		c.rdl = deadline
	}
	var prefix [4]byte
	//geomancy:allow locksafe bounded only by the caller's deadline: a caller holding a lock must pass a non-zero one (session.roundTripLocked passes start+IOTimeout); the zero-deadline readers, the daemon's and control agent's receive loops, hold no lock
	if _, err := io.ReadFull(c.br, prefix[:]); err != nil {
		return err
	}
	n := int(binary.LittleEndian.Uint32(prefix[:]))
	if n < frameFixed || n > maxFrame {
		return fmt.Errorf("%w: length prefix %d outside [%d, %d]", ErrFrame, uint32(n), frameFixed, maxFrame)
	}
	c.frame = c.frame[:0]
	for have := 0; have < n; have = len(c.frame) {
		step := min(n-have, max(have, readChunk, cap(c.frame)-have))
		c.frame = slices.Grow(c.frame, step)[:have+step]
		//geomancy:allow locksafe bounded by the same caller's deadline as the length prefix, which a lock-holding caller must make non-zero
		if _, err := io.ReadFull(c.br, c.frame[have:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // the peer left mid-frame
			}
			return err
		}
	}
	return c.decode(env, c.frame)
}

// write frames env under the connection's writer lock, failing once
// deadline passes (the zero time waits forever). A frame over maxFrame is
// refused before any byte of it is sent.
func (c *codec) write(env *Envelope, deadline time.Time) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = appendEnvelope(c.wbuf[:0], env)
	if len(c.wbuf)-4 > maxFrame {
		return fmt.Errorf("%w: %s frame of %d bytes exceeds %d", ErrFrame, env.Type, len(c.wbuf)-4, maxFrame)
	}
	if !deadline.Equal(c.wdl) {
		if err := c.conn.SetWriteDeadline(deadline); err != nil {
			return err
		}
		c.wdl = deadline
	}
	//geomancy:allow locksafe per-connection writer lock (and, from a session, its serialization lock); sessions bound the write by RetryPolicy.IOTimeout, pushes by AckTimeout
	_, err := c.conn.Write(c.wbuf)
	return err
}

// session is an agent's connection to the Interface Daemon and the single
// owner of its failure model: the connection is dialed lazily and redialed
// after any transport failure, every attempt runs under the retry policy's
// IOTimeout so a hung daemon surfaces as an error, replies are matched by
// ID with stale ones drained, a daemon-level TypeError or a peer of another
// wire version is returned without retrying, and an exhausted budget is
// marked ErrUnavailable.
//
// mu serializes round trips and guards c, dialed, closed and whatever the
// owning agent keeps alongside (the monitor's retained batch, the store's
// query counter): owners lock it around callLocked; send and the rest lock it
// themselves.
type session struct {
	addr   string
	policy RetryPolicy
	met    agentMetrics
	rng    *rng.RNG // backoff jitter only; never affects behaviour

	mu     sync.Mutex
	c      *codec // nil: the next attempt dials
	dialed bool   // a dial has succeeded before (reconnect counter)
	closed bool
}

// newSession prepares a session for one agent kind ("monitor", "client",
// "control"); nothing is dialed until the first callLocked or send.
func newSession(addr, kind string, jitterSeed int64, opts []Option) *session {
	o := buildOptions(opts)
	return &session{addr: addr, policy: o.policy, met: metricsFor(o.reg, kind), rng: rng.New(jitterSeed)}
}

// connectLocked returns the live connection, dialing if there is none.
func (s *session) connectLocked() (*codec, error) {
	if s.closed {
		return nil, net.ErrClosed
	}
	if s.c == nil {
		//geomancy:allow locksafe connection-serialization lock; the dial is bounded by RetryPolicy.IOTimeout
		conn, err := net.DialTimeout("tcp", s.addr, s.policy.IOTimeout)
		if err != nil {
			return nil, err
		}
		s.c = newCodec(conn)
		if s.dialed {
			s.met.reconnects.Inc()
		}
		s.dialed = true
	}
	return s.c, nil
}

// dropLocked discards a broken connection so the next attempt redials. A
// fresh connection also guarantees a clean stream position: no stale
// replies from timed-out round trips linger in the read buffer.
func (s *session) dropLocked() error {
	if s.c == nil {
		return nil
	}
	err := s.c.conn.Close()
	s.c = nil
	return err
}

// callLocked sends req and returns the reply of type want that carries req's ID,
// retrying transport failures under the policy's budget. Requests must be
// safe to replay: queries are reads, and the daemon dedupes telemetry
// batches by (From, ID). The caller holds s.mu.
func (s *session) callLocked(req *Envelope, want MsgType) (Envelope, error) {
	var lastErr error
	for attempt := 1; attempt <= s.policy.MaxAttempts; attempt++ {
		if attempt > 1 {
			s.met.retries.Inc()
			time.Sleep(s.policy.backoff(attempt-1, s.rng))
		}
		reply, err := s.roundTripLocked(req, want)
		if err == nil {
			return reply, nil
		}
		if errors.As(err, new(fatalAckError)) {
			// The daemon answered; the failure is its storage layer, not
			// the transport, and repeating the request would not change it.
			return Envelope{}, err
		}
		s.dropLocked()
		if errors.Is(err, ErrVersion) {
			// Redialing reaches the same build; a retry cannot succeed.
			return Envelope{}, err
		}
		lastErr = err
	}
	return Envelope{}, markUnavailable(lastErr)
}

// roundTripLocked is one attempt: write req and read until its reply, all
// before one IOTimeout deadline.
func (s *session) roundTripLocked(req *Envelope, want MsgType) (Envelope, error) {
	c, err := s.connectLocked()
	if err != nil {
		return Envelope{}, err
	}
	start := time.Now() //geomancy:nondeterministic I/O deadline and ack-latency timestamp; never reaches wire or layout output
	deadline := start.Add(s.policy.IOTimeout)
	if err := c.write(req, deadline); err != nil {
		return Envelope{}, fmt.Errorf("write %s: %w", req.Type, err)
	}
	for {
		var reply Envelope
		if err := c.read(&reply, deadline); err != nil {
			return Envelope{}, fmt.Errorf("read %s: %w", want, err)
		}
		switch {
		case reply.Type == TypeError:
			return Envelope{}, fatalAckError{fmt.Errorf("daemon error: %s", reply.Error)}
		case reply.Type == want && reply.ID < req.ID:
			// A stale reply to an earlier request whose round trip was
			// abandoned; drain it so this request reads its own answer.
			continue
		case reply.Type != want || reply.ID != req.ID:
			return Envelope{}, fmt.Errorf("unexpected reply %s (id %d, want %s id %d)", reply.Type, reply.ID, want, req.ID)
		}
		s.met.ackLatency.Observe(time.Since(start).Seconds()) //geomancy:nondeterministic telemetry timestamp for the ack-latency histogram
		return reply, nil
	}
}

// send writes env one-way under an IOTimeout write deadline, dialing
// first if there is no connection, and returns the connection it wrote on
// so a receive loop can read what comes back. A failed write drops the
// connection. It is not retried: the control agent's receive loop owns
// reconnection.
func (s *session) send(env *Envelope) (*codec, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, err := s.connectLocked()
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(s.policy.IOTimeout) //geomancy:nondeterministic I/O deadline computation; never reaches wire or layout output
	if err := c.write(env, deadline); err != nil {
		s.dropLocked()
		return nil, err
	}
	return c, nil
}

// close drops the connection for good: later calls and sends fail with
// net.ErrClosed instead of redialing.
func (s *session) close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return s.dropLocked()
}

// fatalAckError marks a daemon-level (non-transport) rejection.
type fatalAckError struct{ err error }

func (e fatalAckError) Error() string { return e.err.Error() }
func (e fatalAckError) Unwrap() error { return e.err }
