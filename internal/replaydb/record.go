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
// recent X accesses per storage device or per file, and time-range scans).
package replaydb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
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

// putLen stores a uint32 little-endian into b[:4].
func putLen(b []byte, v uint32) { binary.LittleEndian.PutUint32(b, v) }

func putString(buf *bytes.Buffer, s string) {
	var l [4]byte
	binary.LittleEndian.PutUint32(l[:], uint32(len(s)))
	buf.Write(l[:])
	buf.WriteString(s)
}

func getString(r *bytes.Reader) (string, error) {
	var l [4]byte
	if _, err := io.ReadFull(r, l[:]); err != nil {
		return "", err
	}
	n := binary.LittleEndian.Uint32(l[:])
	if n > uint32(r.Len()) {
		return "", fmt.Errorf("replaydb: string length %d exceeds remaining %d", n, r.Len())
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}

func putU64(buf *bytes.Buffer, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	buf.Write(b[:])
}

func getU64(r *bytes.Reader) (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

func putI64(buf *bytes.Buffer, v int64)   { putU64(buf, uint64(v)) }
func putF64(buf *bytes.Buffer, v float64) { putU64(buf, math.Float64bits(v)) }
func putI32(buf *bytes.Buffer, v int32)   { putU64(buf, uint64(uint32(v))) }

func getI64(r *bytes.Reader) (int64, error) {
	v, err := getU64(r)
	return int64(v), err
}

func getF64(r *bytes.Reader) (float64, error) {
	v, err := getU64(r)
	return math.Float64frombits(v), err
}

func getI32(r *bytes.Reader) (int32, error) {
	v, err := getU64(r)
	return int32(uint32(v)), err
}

// encodeAccess serializes a record into a WAL frame payload.
func encodeAccess(rec *AccessRecord) []byte {
	var buf bytes.Buffer
	putU64(&buf, rec.Seq)
	putF64(&buf, rec.Time)
	putI32(&buf, rec.Workload)
	putI32(&buf, rec.Run)
	putI64(&buf, rec.FileID)
	putString(&buf, rec.Path)
	putString(&buf, rec.Device)
	putI64(&buf, rec.BytesRead)
	putI64(&buf, rec.BytesWritten)
	putI64(&buf, rec.OpenTS)
	putI64(&buf, rec.OpenTMS)
	putI64(&buf, rec.CloseTS)
	putI64(&buf, rec.CloseTMS)
	putF64(&buf, rec.Throughput)
	return buf.Bytes()
}

func decodeAccess(payload []byte) (AccessRecord, error) {
	r := bytes.NewReader(payload)
	var rec AccessRecord
	var err error
	read := func(f func() error) {
		if err == nil {
			err = f()
		}
	}
	read(func() error { rec.Seq, err = getU64(r); return err })
	read(func() error { rec.Time, err = getF64(r); return err })
	read(func() error { rec.Workload, err = getI32(r); return err })
	read(func() error { rec.Run, err = getI32(r); return err })
	read(func() error { rec.FileID, err = getI64(r); return err })
	read(func() error { rec.Path, err = getString(r); return err })
	read(func() error { rec.Device, err = getString(r); return err })
	read(func() error { rec.BytesRead, err = getI64(r); return err })
	read(func() error { rec.BytesWritten, err = getI64(r); return err })
	read(func() error { rec.OpenTS, err = getI64(r); return err })
	read(func() error { rec.OpenTMS, err = getI64(r); return err })
	read(func() error { rec.CloseTS, err = getI64(r); return err })
	read(func() error { rec.CloseTMS, err = getI64(r); return err })
	read(func() error { rec.Throughput, err = getF64(r); return err })
	if err != nil {
		return rec, fmt.Errorf("replaydb: decoding access record: %w", err)
	}
	return rec, nil
}

func encodeMovement(m *MovementRecord) []byte {
	var buf bytes.Buffer
	putU64(&buf, m.Seq)
	putF64(&buf, m.Time)
	putI64(&buf, m.FileID)
	putString(&buf, m.From)
	putString(&buf, m.To)
	putI64(&buf, m.Bytes)
	putF64(&buf, m.Duration)
	putI64(&buf, m.AccessIndex)
	return buf.Bytes()
}

func decodeMovement(payload []byte) (MovementRecord, error) {
	r := bytes.NewReader(payload)
	var m MovementRecord
	var err error
	read := func(f func() error) {
		if err == nil {
			err = f()
		}
	}
	read(func() error { m.Seq, err = getU64(r); return err })
	read(func() error { m.Time, err = getF64(r); return err })
	read(func() error { m.FileID, err = getI64(r); return err })
	read(func() error { m.From, err = getString(r); return err })
	read(func() error { m.To, err = getString(r); return err })
	read(func() error { m.Bytes, err = getI64(r); return err })
	read(func() error { m.Duration, err = getF64(r); return err })
	read(func() error { m.AccessIndex, err = getI64(r); return err })
	if err != nil {
		return m, fmt.Errorf("replaydb: decoding movement record: %w", err)
	}
	return m, nil
}
