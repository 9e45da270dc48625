package agents

import (
	"fmt"

	"geomancy/internal/replaydb"
	"geomancy/internal/storagesim"
)

// Monitor is a monitoring agent. One monitor watches one storage device —
// "each monitoring agent only measures the performance of one storage
// device to allow for parallel data collection" (§V-A) — and ships access
// telemetry to the Interface Daemon in batches, because "Geomancy captures
// groups of accesses as one access to lower the overhead of transferring
// the performance data".
//
// Failure model: a batch keeps its sequence ID until the daemon
// acknowledges it. Transport failures (write error, ack timeout, dropped
// connection) redial and replay the batch under the *same* ID; the daemon
// deduplicates by (From, ID), so a retry whose original delivery actually
// succeeded is acknowledged without storing duplicates.
type Monitor struct {
	// Device is the mount this agent watches; accesses on other devices
	// are ignored.
	Device string
	// BatchSize is the number of reports shipped per message.
	BatchSize int

	s       *session // s.mu also guards the fields below
	next    uint64
	batchID uint64 // ID of the buffered batch; 0 = unassigned
	batch   []replaydb.AccessRecord
}

// NewMonitor dials the Interface Daemon at addr and returns an agent for
// the named device. batchSize ≤ 0 defaults to 32.
//
//geomancy:allow ctxflow constructor dial is deadline-bounded by RetryPolicy.IOTimeout; no caller context exists yet
func NewMonitor(addr, device string, batchSize int, opts ...Option) (*Monitor, error) {
	if batchSize <= 0 {
		batchSize = 32
	}
	m := &Monitor{Device: device, BatchSize: batchSize, s: newSession(addr, "monitor", int64(len(device))+42, opts)}
	if _, err := m.s.connectLocked(); err != nil {
		return nil, fmt.Errorf("agents: monitor dial: %w", err)
	}
	return m, nil
}

// Observe records one access. Accesses on other devices are ignored, so a
// single workload callback can fan out to the per-device agents. The batch
// is shipped when full.
func (m *Monitor) Observe(res storagesim.AccessResult, workloadID, run int) error {
	if res.Device != m.Device {
		return nil
	}
	m.s.mu.Lock()
	defer m.s.mu.Unlock()
	m.batch = append(m.batch, replaydb.FromAccess(res, workloadID, run))
	if len(m.batch) >= m.BatchSize {
		return m.flushLocked()
	}
	return nil
}

// Flush ships any buffered reports immediately and waits for the daemon's
// ack, so a completed Flush guarantees the telemetry is queryable (the
// engine trains right after flushing).
func (m *Monitor) Flush() error {
	m.s.mu.Lock()
	defer m.s.mu.Unlock()
	return m.flushLocked()
}

func (m *Monitor) flushLocked() error {
	if len(m.batch) == 0 {
		return nil
	}
	// The batch ID is assigned once and survives retries and failed
	// flushes: the daemon dedupes replays by (From, ID).
	if m.batchID == 0 {
		m.next++
		m.batchID = m.next
	}
	req := Envelope{Type: TypeMetrics, ID: m.batchID, From: m.Device, Reports: m.batch}
	if _, err := m.s.callLocked(&req, TypeMetricsAck); err != nil {
		return fmt.Errorf("agents: monitor %s flush: %w", m.Device, err)
	}
	m.batch = m.batch[:0]
	m.batchID = 0
	return nil
}

// Close flushes and closes the connection.
func (m *Monitor) Close() error {
	err := m.Flush()
	if cerr := m.s.close(); err == nil {
		err = cerr
	}
	return err
}

// MonitorSet bundles one monitor per device behind a single Observer
// callback, mirroring how agents sit on every mount of the target system.
type MonitorSet struct {
	monitors []*Monitor          // dial order: the order Flush and Close visit
	byDevice map[string]*Monitor // Observe's route
}

// NewMonitorSet dials one monitoring agent per device name.
func NewMonitorSet(addr string, devices []string, batchSize int, opts ...Option) (*MonitorSet, error) {
	set := &MonitorSet{byDevice: make(map[string]*Monitor, len(devices))}
	for _, dev := range devices {
		m, err := NewMonitor(addr, dev, batchSize, opts...)
		if err != nil {
			set.Close()
			return nil, err
		}
		set.monitors = append(set.monitors, m)
		set.byDevice[dev] = m
	}
	return set, nil
}

// Observe hands the access to the agent watching its device, if any.
func (s *MonitorSet) Observe(res storagesim.AccessResult, workloadID, run int) error {
	if m := s.byDevice[res.Device]; m != nil {
		return m.Observe(res, workloadID, run)
	}
	return nil
}

// Flush flushes every agent.
func (s *MonitorSet) Flush() error {
	for _, m := range s.monitors {
		if err := m.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Close closes every agent, returning the first error.
func (s *MonitorSet) Close() error {
	var first error
	for _, m := range s.monitors {
		if err := m.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
