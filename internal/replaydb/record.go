// Package replaydb implements Geomancy's ReplayDB (§V-A): the embedded
// database, decoupled from the target system, that stores every raw
// performance record the monitoring agents report and every data-layout
// action the engine takes, each indexed by timestamp "to show an evolution
// of the data layout and corresponding performance".
//
// The paper uses SQLite; this implementation is a purpose-built embedded
// store with the same durability contract for this access pattern: an
// append-only write-ahead log with CRC-framed records and torn-tail
// recovery, plus in-memory indexes serving the engine's queries (the most
// recent X accesses per storage device or per file). The log keeps every
// record; memory keeps every record too, or, under a retention Horizon,
// only as many per device and per file as those queries reach.
package replaydb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"geomancy/internal/storagesim"
)

// AccessRecord is one observed file access: the telemetry a monitoring
// agent reports for a single open-to-close interaction.
type AccessRecord struct {
	// Seq is the database-assigned monotone sequence number.
	Seq uint64
	// Time is the (virtual) time of the access in seconds.
	Time float64
	// Workload distinguishes concurrent workloads (experiment 3).
	Workload int32
	// Run is the workload-run index the access belongs to.
	Run int32
	// FileID is the stable file identifier.
	FileID int64
	// Path is the file's logical path.
	Path string
	// Device is the storage-device (mount) name hosting the access.
	Device string
	// BytesRead and BytesWritten measure the access volume.
	BytesRead, BytesWritten int64
	// OpenTS/OpenTMS and CloseTS/CloseTMS split the open and close
	// timestamps into seconds and millisecond parts as the paper's
	// throughput formula expects.
	OpenTS, OpenTMS   int64
	CloseTS, CloseTMS int64
	// Throughput is the measured bytes/second of the access.
	Throughput float64
}

// ErrInvalidRecord reports an access record no query could use: a Time or
// Throughput that is NaN or ±Inf, or a negative byte count. One such record
// in a training window turns every fit over it into NaN, and a NaN Time
// leaves the window with no time order.
var ErrInvalidRecord = errors.New("replaydb: invalid access record")

// Validate returns an error wrapping ErrInvalidRecord, naming the field,
// when the database would refuse rec; nil otherwise.
func (rec *AccessRecord) Validate() error {
	switch {
	case math.IsNaN(rec.Time) || math.IsInf(rec.Time, 0):
		return fmt.Errorf("%w: time %v", ErrInvalidRecord, rec.Time)
	case math.IsNaN(rec.Throughput) || math.IsInf(rec.Throughput, 0):
		return fmt.Errorf("%w: throughput %v", ErrInvalidRecord, rec.Throughput)
	case rec.BytesRead < 0 || rec.BytesWritten < 0:
		return fmt.Errorf("%w: %d bytes read, %d written", ErrInvalidRecord, rec.BytesRead, rec.BytesWritten)
	}
	return nil
}

// FromAccess converts one simulated access into the record stored for it,
// tagged with the workload id and run index it belongs to. Every path
// from the simulator into the database — direct appends and the agents'
// wire reports alike — goes through this one conversion.
func FromAccess(res storagesim.AccessResult, workloadID, run int) AccessRecord {
	return AccessRecord{
		Time:         res.Start,
		Workload:     int32(workloadID),
		Run:          int32(run),
		FileID:       res.FileID,
		Path:         res.Path,
		Device:       res.Device,
		BytesRead:    res.BytesRead,
		BytesWritten: res.BytesWritten,
		OpenTS:       res.OpenTS,
		OpenTMS:      res.OpenTMS,
		CloseTS:      res.CloseTS,
		CloseTMS:     res.CloseTMS,
		Throughput:   res.Throughput,
	}
}

// MovementRecord is one data-layout action: a file moved between devices.
type MovementRecord struct {
	Seq      uint64
	Time     float64
	FileID   int64
	From, To string
	Bytes    int64
	// Duration is the transfer time in seconds (the movement overhead).
	Duration float64
	// AccessIndex is the global access count at the moment of the move;
	// Fig. 5 aligns movement bars with it.
	AccessIndex int64
}

// recordType tags WAL frames.
type recordType byte

const (
	frameAccess recordType = iota + 1
	frameMovement
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// checksum computes the WAL frame checksum of a payload.
func checksum(payload []byte) uint32 { return crc32.Checksum(payload, crcTable) }

// frameHeader is the bytes of a WAL frame before its payload: the record
// type and the payload length. The payload's CRC follows it.
const frameHeader = 5

// sealFrame completes the WAL frame whose header was appended at
// dst[start:] and whose payload runs to the end of dst: it fills in the
// payload length and appends the payload's checksum.
func sealFrame(dst []byte, start int) []byte {
	payload := dst[start+frameHeader:]
	binary.LittleEndian.PutUint32(dst[start+1:], uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(dst, checksum(payload))
}

// appendAccessFrame appends rec to dst as one WAL frame.
func appendAccessFrame(dst []byte, rec *AccessRecord) []byte {
	return sealFrame(AppendAccessRecord(append(dst, byte(frameAccess), 0, 0, 0, 0), rec), len(dst))
}

// appendMovementFrame appends m to dst as one WAL frame.
func appendMovementFrame(dst []byte, m *MovementRecord) []byte {
	return sealFrame(AppendMovementRecord(append(dst, byte(frameMovement), 0, 0, 0, 0), m), len(dst))
}

// The record layout is little-endian and fixed-order: every integer and
// float field is eight bytes (the two int32 fields are zero-extended), a
// string is a uint32 length and its bytes. It is what the WAL has always
// held and what the agents' wire frames carry, so a record is encoded by
// one function and decoded by one function wherever it crosses a boundary.

// MinAccessRecordLen is the encoded size of an access record whose Path and
// Device are empty: the bound a reader applies, through Decoder.Count, to a
// record count it has not yet trusted.
const MinAccessRecordLen = 12*8 + 2*4

// ErrRecord reports bytes that do not decode: they end early, a string
// length runs past the end, or an int32 field is not zero-extended (the
// encoding of a record is unique).
var ErrRecord = errors.New("replaydb: malformed record")

func appendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }

// AppendString appends s as the record layout spells a string.
func AppendString(dst []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint32(dst, uint32(len(s))), s...)
}

// AppendAccessRecord appends rec's encoding to dst and returns the extended
// slice. It allocates only when dst must grow.
func AppendAccessRecord(dst []byte, rec *AccessRecord) []byte {
	dst = appendU64(dst, rec.Seq)
	dst = appendU64(dst, math.Float64bits(rec.Time))
	dst = appendU64(dst, uint64(uint32(rec.Workload)))
	dst = appendU64(dst, uint64(uint32(rec.Run)))
	dst = appendU64(dst, uint64(rec.FileID))
	dst = AppendString(dst, rec.Path)
	dst = AppendString(dst, rec.Device)
	dst = appendU64(dst, uint64(rec.BytesRead))
	dst = appendU64(dst, uint64(rec.BytesWritten))
	dst = appendU64(dst, uint64(rec.OpenTS))
	dst = appendU64(dst, uint64(rec.OpenTMS))
	dst = appendU64(dst, uint64(rec.CloseTS))
	dst = appendU64(dst, uint64(rec.CloseTMS))
	return appendU64(dst, math.Float64bits(rec.Throughput))
}

// AppendMovementRecord appends m's encoding to dst.
func AppendMovementRecord(dst []byte, m *MovementRecord) []byte {
	dst = appendU64(dst, m.Seq)
	dst = appendU64(dst, math.Float64bits(m.Time))
	dst = appendU64(dst, uint64(m.FileID))
	dst = AppendString(dst, m.From)
	dst = AppendString(dst, m.To)
	dst = appendU64(dst, uint64(m.Bytes))
	dst = appendU64(dst, math.Float64bits(m.Duration))
	return appendU64(dst, uint64(m.AccessIndex))
}

// maxInterned and maxInternedLen bound a Decoder's name table, in entries
// and in bytes per entry. A log names a few dozen devices and as many paths
// as it has files, each repeated in every record that touches it; a name
// past either bound simply gets a string of its own, so a hostile peer
// cannot park more than 256 KB in the table.
const (
	maxInterned    = 1024
	maxInternedLen = 256
)

// Decoder walks encoded bytes in place. Reset points it at a buffer and
// each read consumes from the front; a read past the end, or a malformed
// field, latches and yields zeros from then on, so a caller decodes a whole
// record — or a whole wire frame around several — and asks Done once.
// Strings read by Str are interned: decoding a record whose names the
// decoder has seen allocates nothing, and the records of one log share
// their strings. The zero value is ready; a Decoder is not safe for
// concurrent use.
type Decoder struct {
	b     []byte
	bad   bool
	names map[string]string
}

// Reset starts decoding b afresh; the name table is kept.
func (d *Decoder) Reset(b []byte) { d.b, d.bad = b, false }

// Done reports whether the buffer was decoded whole: nil when every read
// since Reset succeeded and no byte is left over, ErrRecord otherwise.
func (d *Decoder) Done() error {
	if d.bad || len(d.b) != 0 {
		return ErrRecord
	}
	return nil
}

func (d *Decoder) take(n int) []byte {
	if uint(n) > uint(len(d.b)) {
		d.b, d.bad = nil, true
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

// U32 reads a four-byte integer.
func (d *Decoder) U32() uint32 {
	if b := d.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads an eight-byte integer.
func (d *Decoder) U64() uint64 {
	if b := d.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (d *Decoder) i64() int64   { return int64(d.U64()) }
func (d *Decoder) f64() float64 { return math.Float64frombits(d.U64()) }

func (d *Decoder) i32() int32 {
	v := d.U64()
	d.bad = d.bad || v>>32 != 0
	return int32(uint32(v))
}

// Str reads a length-prefixed string, shared with every equal one read
// before (up to the table's bounds).
func (d *Decoder) Str() string {
	b := d.take(int(d.U32()))
	if s, ok := d.names[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(d.names) < maxInterned && len(s) <= maxInternedLen {
		if d.names == nil {
			d.names = make(map[string]string)
		}
		d.names[s] = s
	}
	return s
}

// Count reads an element count and fails unless the bytes left could hold
// that many elements of at least each bytes, so a hostile count sizes
// nothing.
func (d *Decoder) Count(each int) int {
	n := int(d.U32())
	if uint(n) > uint(len(d.b)/each) {
		d.b, d.bad = nil, true
		return 0
	}
	return n
}

// Access reads one access record.
func (d *Decoder) Access() AccessRecord {
	return AccessRecord{
		Seq: d.U64(), Time: d.f64(), Workload: d.i32(), Run: d.i32(), FileID: d.i64(),
		Path: d.Str(), Device: d.Str(),
		BytesRead: d.i64(), BytesWritten: d.i64(),
		OpenTS: d.i64(), OpenTMS: d.i64(), CloseTS: d.i64(), CloseTMS: d.i64(),
		Throughput: d.f64(),
	}
}

// Movement reads one movement record.
func (d *Decoder) Movement() MovementRecord {
	return MovementRecord{
		Seq: d.U64(), Time: d.f64(), FileID: d.i64(), From: d.Str(), To: d.Str(),
		Bytes: d.i64(), Duration: d.f64(), AccessIndex: d.i64(),
	}
}
