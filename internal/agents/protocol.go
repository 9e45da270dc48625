// Package agents implements Geomancy's distributed plumbing (§V-A): the
// monitoring agents that watch one storage device each and report access
// telemetry, the control agents that execute data movements on the target
// system, and the Interface Daemon — "a networking middleware that allows
// parallel requests to be sent between the target system, Geomancy, and
// internally within Geomancy".
//
// Geomancy and the target system are separate entities communicating only
// over the network. The wire protocol is length-prefixed binary frames over
// TCP (DESIGN.md §"Wire format"): a fixed header, then a body fixed per
// message type whose access records are the ReplayDB's own record bytes —
// internal/replaydb's encoder and decoder are the only ones a record meets,
// on the socket and in the write-ahead log alike.
package agents

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"geomancy/internal/replaydb"
	"geomancy/internal/storagesim"
)

// MsgType is the one-byte message type of a frame.
type MsgType uint8

// Message types exchanged on the wire.
const (
	// TypeMetrics carries a batch of access reports from a monitoring
	// agent to the Interface Daemon.
	TypeMetrics MsgType = iota + 1
	// TypeMetricsAck confirms a telemetry batch was durably stored, so a
	// monitor's Flush has read-your-writes semantics for the engine.
	TypeMetricsAck
	// TypeRegisterControl announces a control agent ready to execute
	// layout updates.
	TypeRegisterControl
	// TypeLayout pushes a new data layout to control agents.
	TypeLayout
	// TypeLayoutAck reports the outcome of applying a layout.
	TypeLayoutAck
	// TypeRecentQuery asks the daemon for the most recent accesses of a
	// device (empty device = all devices), or of one file when FileID is
	// set.
	TypeRecentQuery
	// TypeRecentReply answers a TypeRecentQuery.
	TypeRecentReply
	// TypeError reports a protocol-level failure.
	TypeError
)

var typeNames = [...]string{
	TypeMetrics: "metrics", TypeMetricsAck: "metrics_ack", TypeRegisterControl: "register_control",
	TypeLayout: "layout", TypeLayoutAck: "layout_ack", TypeRecentQuery: "recent",
	TypeRecentReply: "recent_reply", TypeError: "error",
}

// String names the type as logs and metric labels spell it.
func (t MsgType) String() string {
	if int(t) < len(typeNames) && typeNames[t] != "" {
		return typeNames[t]
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Report is one observed access as a monitoring agent reports it:
// replaydb.AccessRecord under the agents' name. The wire carries the record
// itself (Envelope.Reports), encoded by replaydb's record encoder; Seq is
// database-assigned — zero in a monitor's batch, the stored sequence number
// in a query reply.
type Report replaydb.AccessRecord

// LayoutEntry is one file→device assignment on the wire.
type LayoutEntry struct {
	FileID int64
	Device string
}

// Envelope is the single wire message; Type selects which fields matter
// and which the frame carries. An envelope filled by a codec's read
// borrows that codec's buffers for Reports and Layout: it is valid until
// the next read on the same connection.
type Envelope struct {
	Type    MsgType
	From    string
	ID      uint64
	Reports []replaydb.AccessRecord
	Layout  []LayoutEntry
	Device  string
	FileID  int64
	N       int
	Moved   int
	Error   string

	// window, set only on a recent_reply the daemon writes, is the query
	// whose records the frame takes straight from the database in place of
	// Reports.
	window recentWindow
}

// recentWindow is one recent-window query against a database: a file's
// (fileID != 0) or a device's up to n most recent accesses.
type recentWindow struct {
	db     *replaydb.DB
	device string
	fileID int64
	n      int
}

// appendTo appends the window as a counted run of records, oldest first,
// encoding each in place under the database's read lock — the bytes
// appendReports writes for a copy of the window.
func (w *recentWindow) appendTo(dst []byte) []byte {
	at, n := len(dst), 0
	dst = appendCount(dst, 0)
	add := func(rec *replaydb.AccessRecord) {
		dst = replaydb.AppendAccessRecord(dst, rec)
		n++
	}
	if w.fileID != 0 {
		w.db.EachRecentByFile(w.fileID, w.n, add)
	} else {
		w.db.EachRecentByDevice(w.device, w.n, add)
	}
	binary.LittleEndian.PutUint32(dst[at:], uint32(n))
	return dst
}

// A frame is
//
//	u32 length | u8 version | u8 type | u64 id | body
//
// little-endian, length counting everything after itself. Bodies, with
// str = u32 length + bytes and record = replaydb's access-record bytes:
//
//	metrics          str from | u32 count | count × record
//	metrics_ack      u32 n
//	register_control (empty)
//	layout           u32 count | count × (u64 file id | str device)
//	layout_ack       u32 moved | str error
//	recent           str device | u64 file id | u32 n
//	recent_reply     u32 count | count × record
//	error            str error
const (
	wireVersion = 1
	// frameFixed is the bytes of a frame between the length prefix and the
	// body, and so the least a length prefix may say.
	frameFixed = 1 + 1 + 8
	// maxFrame caps the length prefix: over a hundred thousand records, and
	// the most a reader will ever buffer for one peer.
	maxFrame = 16 << 20
)

var (
	// ErrFrame marks a frame that is not well formed: a length outside
	// [frameFixed, maxFrame], an unknown type, or a body that does not
	// decode whole. The stream cannot be trusted past it, so the reader
	// drops the connection.
	ErrFrame = errors.New("agents: malformed frame")
	// ErrVersion marks a frame whose version byte is not this build's. No
	// retry can change that, so sessions return it without spending their
	// budget and control agents stop reconnecting.
	ErrVersion = errors.New("agents: wire version mismatch")
)

// appendCount appends a count as a u32, clamped to what a u32 holds.
func appendCount(dst []byte, n int) []byte {
	return binary.LittleEndian.AppendUint32(dst, uint32(min(max(int64(n), 0), math.MaxUint32)))
}

func appendReports(dst []byte, reports []replaydb.AccessRecord) []byte {
	dst = appendCount(dst, len(reports))
	for i := range reports {
		dst = replaydb.AppendAccessRecord(dst, &reports[i])
	}
	return dst
}

// appendEnvelope appends env's frame to dst.
func appendEnvelope(dst []byte, env *Envelope) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, wireVersion, byte(env.Type))
	dst = binary.LittleEndian.AppendUint64(dst, env.ID)
	switch env.Type {
	case TypeMetrics:
		dst = appendReports(replaydb.AppendString(dst, env.From), env.Reports)
	case TypeMetricsAck:
		dst = appendCount(dst, env.N)
	case TypeLayout:
		dst = appendCount(dst, len(env.Layout))
		for _, e := range env.Layout {
			dst = replaydb.AppendString(binary.LittleEndian.AppendUint64(dst, uint64(e.FileID)), e.Device)
		}
	case TypeLayoutAck:
		dst = replaydb.AppendString(appendCount(dst, env.Moved), env.Error)
	case TypeRecentQuery:
		dst = binary.LittleEndian.AppendUint64(replaydb.AppendString(dst, env.Device), uint64(env.FileID))
		dst = appendCount(dst, env.N)
	case TypeRecentReply:
		if env.window.db != nil {
			dst = env.window.appendTo(dst)
		} else {
			dst = appendReports(dst, env.Reports)
		}
	case TypeError:
		dst = replaydb.AppendString(dst, env.Error)
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// readReports decodes a counted run of access records into the codec's
// reused slice.
func (c *codec) readReports() []replaydb.AccessRecord {
	c.reports = c.reports[:0]
	for n := c.dec.Count(replaydb.MinAccessRecordLen); n > 0; n-- {
		c.reports = append(c.reports, c.dec.Access())
	}
	return c.reports
}

// decode fills env from one frame (the bytes after the length prefix).
func (c *codec) decode(env *Envelope, frame []byte) error {
	if frame[0] != wireVersion {
		return fmt.Errorf("%w: peer speaks version %d, this build %d", ErrVersion, frame[0], wireVersion)
	}
	*env = Envelope{Type: MsgType(frame[1]), ID: binary.LittleEndian.Uint64(frame[2:])}
	r := &c.dec
	r.Reset(frame[frameFixed:])
	switch env.Type {
	case TypeMetrics:
		env.From = r.Str()
		env.Reports = c.readReports()
	case TypeMetricsAck:
		env.N = int(r.U32())
	case TypeRegisterControl:
	case TypeLayout:
		c.layout = c.layout[:0]
		for n := r.Count(8 + 4); n > 0; n-- {
			c.layout = append(c.layout, LayoutEntry{FileID: int64(r.U64()), Device: r.Str()})
		}
		env.Layout = c.layout
	case TypeLayoutAck:
		env.Moved = int(r.U32())
		env.Error = r.Str()
	case TypeRecentQuery:
		env.Device = r.Str()
		env.FileID = int64(r.U64())
		env.N = int(r.U32())
	case TypeRecentReply:
		env.Reports = c.readReports()
	case TypeError:
		env.Error = r.Str()
	default:
		return fmt.Errorf("%w: unknown message type %d", ErrFrame, frame[1])
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("%w: %s body: %v", ErrFrame, env.Type, err)
	}
	return nil
}

// ReportFromAccess converts simulator telemetry into a wire report.
func ReportFromAccess(res storagesim.AccessResult, workloadID, run int) Report {
	return Report(replaydb.FromAccess(res, workloadID, run))
}

// ToRecord converts a wire report into a ReplayDB access record.
func (r Report) ToRecord() replaydb.AccessRecord { return replaydb.AccessRecord(r) }
