// Package agents implements Geomancy's distributed plumbing (§V-A): the
// monitoring agents that watch one storage device each and report access
// telemetry, the control agents that execute data movements on the target
// system, and the Interface Daemon — "a networking middleware that allows
// parallel requests to be sent between the target system, Geomancy, and
// internally within Geomancy".
//
// Geomancy and the target system are separate entities communicating only
// over the network; the wire protocol is newline-delimited JSON over TCP.
package agents

import (
	"geomancy/internal/replaydb"
	"geomancy/internal/storagesim"
)

// Message types exchanged on the wire.
const (
	// TypeMetrics carries a batch of access reports from a monitoring
	// agent to the Interface Daemon.
	TypeMetrics = "metrics"
	// TypeMetricsAck confirms a telemetry batch was durably stored, so a
	// monitor's Flush has read-your-writes semantics for the engine.
	TypeMetricsAck = "metrics_ack"
	// TypeRegisterControl announces a control agent ready to execute
	// layout updates.
	TypeRegisterControl = "register_control"
	// TypeLayout pushes a new data layout to control agents.
	TypeLayout = "layout"
	// TypeLayoutAck reports the outcome of applying a layout.
	TypeLayoutAck = "layout_ack"
	// TypeRecentQuery asks the daemon for the most recent accesses of a
	// device (empty device = all devices), or of one file when FileID is
	// set.
	TypeRecentQuery = "recent"
	// TypeRecentReply answers a TypeRecentQuery.
	TypeRecentReply = "recent_reply"
	// TypeError reports a protocol-level failure.
	TypeError = "error"
)

// Report is the wire form of one observed access. It is
// replaydb.AccessRecord under wire tags: the two structs have identical
// fields in identical order, so ToRecord and ReportFromRecord are type
// conversions, and adding a field to AccessRecord without adding it here
// fails to compile. Seq is database-assigned and stays off the wire.
type Report struct {
	Seq          uint64  `json:"-"`
	Time         float64 `json:"time"`
	Workload     int32   `json:"workload"`
	Run          int32   `json:"run"`
	FileID       int64   `json:"file_id"`
	Path         string  `json:"path"`
	Device       string  `json:"device"`
	BytesRead    int64   `json:"rb"`
	BytesWritten int64   `json:"wb"`
	OpenTS       int64   `json:"ots"`
	OpenTMS      int64   `json:"otms"`
	CloseTS      int64   `json:"cts"`
	CloseTMS     int64   `json:"ctms"`
	Throughput   float64 `json:"throughput"`
}

// LayoutEntry is one file→device assignment on the wire.
type LayoutEntry struct {
	FileID int64  `json:"file_id"`
	Device string `json:"device"`
}

// Envelope is the single wire message; Type selects which fields matter.
type Envelope struct {
	Type    string        `json:"type"`
	From    string        `json:"from,omitempty"`
	ID      uint64        `json:"id,omitempty"`
	Reports []Report      `json:"reports,omitempty"`
	Layout  []LayoutEntry `json:"layout,omitempty"`
	Device  string        `json:"device,omitempty"`
	FileID  int64         `json:"file_id,omitempty"`
	N       int           `json:"n,omitempty"`
	Moved   int           `json:"moved,omitempty"`
	Error   string        `json:"error,omitempty"`
}

// ReportFromAccess converts simulator telemetry into a wire report.
func ReportFromAccess(res storagesim.AccessResult, workloadID, run int) Report {
	return ReportFromRecord(replaydb.FromAccess(res, workloadID, run))
}

// ToRecord converts a wire report into a ReplayDB access record.
func (r Report) ToRecord() replaydb.AccessRecord { return replaydb.AccessRecord(r) }

// ReportFromRecord converts a stored record back to wire form.
func ReportFromRecord(rec replaydb.AccessRecord) Report { return Report(rec) }
