package replaydb

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"

	"geomancy/internal/telemetry"
)

// magic identifies a ReplayDB WAL file and its format version.
var magic = []byte("GRDB0001")

// Options configure a database.
type Options struct {
	// Path is the WAL file; empty means a memory-only database.
	Path string
	// SyncEvery fsyncs the WAL after every n appends; 0 disables explicit
	// syncing (the OS flushes on Close).
	SyncEvery int
}

// DB is the ReplayDB: an append-only store of access and movement records
// with in-memory indexes. All methods are safe for concurrent use.
type DB struct {
	mu sync.RWMutex

	accesses  accessLog
	movements []MovementRecord
	byDevice  map[string][]int // positions in accesses
	byFile    map[int64][]int
	nextSeq   uint64

	file     *os.File
	w        *bufio.Writer
	frame    []byte // the WAL frame being written; reused across appends
	opts     Options
	unsynced int
	closed   bool

	// marks are the (seq, end-offset) boundaries of replayed WAL frames;
	// TruncateTo uses them to cut the file at a record boundary. appended
	// flips on the first live write, after which the marks are stale and
	// TruncateTo is refused.
	marks    []frameMark
	appended bool

	// telemetry counters; nil handles no-op until SetMetrics installs a
	// registry. Atomic, so they are safe to bump under either lock mode.
	accessInserts   *telemetry.Counter
	movementInserts *telemetry.Counter
	queries         *telemetry.Counter
}

// SetMetrics wires the database's insert/query counters to reg. Replayed
// WAL frames are not counted — the counters track live traffic.
func (db *DB) SetMetrics(reg *telemetry.Registry) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.accessInserts = reg.Counter(telemetry.MetricReplayAccessInserts)
	db.movementInserts = reg.Counter(telemetry.MetricReplayMovementInserts)
	db.queries = reg.Counter(telemetry.MetricReplayQueriesTotal)
}

// Open opens (creating if necessary) a database. Existing WAL contents are
// replayed into memory; a torn final frame — the signature of a crash
// mid-append — is truncated away, matching the recovery behaviour of a
// journaled embedded database.
func Open(opts Options) (*DB, error) {
	db := &DB{
		byDevice: make(map[string][]int),
		byFile:   make(map[int64][]int),
		nextSeq:  1,
		opts:     opts,
	}
	if opts.Path == "" {
		return db, nil
	}
	f, err := os.OpenFile(opts.Path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("replaydb: opening WAL: %w", err)
	}
	validLen, err := db.openWAL(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	db.file = f
	db.w = bufio.NewWriter(f)
	if validLen == 0 {
		if _, err := db.w.Write(magic); err != nil {
			f.Close()
			return nil, fmt.Errorf("replaydb: writing WAL header: %w", err)
		}
	}
	return db, nil
}

// openWAL replays f and leaves it truncated to, and positioned at, the end
// of its last intact frame.
func (db *DB) openWAL(f *os.File) (int64, error) {
	info, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("replaydb: opening WAL: %w", err)
	}
	validLen, err := db.replay(f, info.Size())
	if err != nil {
		return 0, fmt.Errorf("replaydb: replaying %s: %w", f.Name(), err)
	}
	if err := f.Truncate(validLen); err != nil {
		return 0, fmt.Errorf("replaydb: truncating torn WAL tail: %w", err)
	}
	if _, err := f.Seek(validLen, io.SeekStart); err != nil {
		return 0, fmt.Errorf("replaydb: seeking WAL: %w", err)
	}
	return validLen, nil
}

var errBadMagic = errors.New("not a ReplayDB WAL (bad magic)")

// ErrFrameType reports an intact WAL frame of a type this build does not
// know. Open fails on it and leaves the file as it found it.
var ErrFrameType = errors.New("replaydb: unknown WAL frame type")

// replay loads every intact frame of a WAL of size bytes read from src,
// returning the byte offset of the end of the last valid frame. A frame
// that is cut short, fails its checksum, or declares a payload longer than
// the bytes left in the log is the torn tail: replay stops in front of it.
// An intact frame that is not one record of a known type is an error.
// The declared length is never trusted further than that, so the payload
// buffer — one, reused — is bounded by the size of the log itself.
func (db *DB) replay(src io.Reader, size int64) (int64, error) {
	r := bufio.NewReader(src)
	hdr := make([]byte, len(magic))
	n, err := io.ReadFull(r, hdr)
	if errors.Is(err, io.EOF) || (errors.Is(err, io.ErrUnexpectedEOF) && n < len(magic)) {
		return 0, nil // empty or stub file: start fresh
	}
	if err != nil {
		return 0, fmt.Errorf("reading WAL header: %w", err)
	}
	if string(hdr) != string(magic) {
		return 0, errBadMagic
	}
	valid := int64(len(magic))
	var dec Decoder
	var frame [frameHeader]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(r, frame[:]); err != nil {
			break // clean EOF or torn header: stop at last valid offset
		}
		typ := recordType(frame[0])
		plen := int64(binary.LittleEndian.Uint32(frame[1:]))
		if plen+4 > size-valid-frameHeader || typ == 0 {
			// The length runs past the end of the log, or the bytes are the
			// zeros a crash leaves in an extended file (no frame has type 0,
			// and an all-zero header and checksum would pass): torn tail.
			break
		}
		payload = slices.Grow(payload[:0], int(plen)+4)[:plen+4]
		if _, err := io.ReadFull(r, payload); err != nil {
			break // torn payload
		}
		body := payload[:plen]
		if checksum(body) != binary.LittleEndian.Uint32(payload[plen:]) {
			break // corrupt frame: treat as torn tail
		}
		// A frame holds exactly one record; only one that decodes whole
		// is inserted.
		dec.Reset(body)
		var seq uint64
		switch typ {
		case frameAccess:
			if rec := dec.Access(); dec.Done() == nil {
				db.insertAccess(rec)
				seq = rec.Seq
			}
		case frameMovement:
			if m := dec.Movement(); dec.Done() == nil {
				db.insertMovement(m)
				seq = m.Seq
			}
		default:
			// Checksum-valid, so not a torn tail: a newer writer's frame.
			// Cutting the log here would destroy every record behind it.
			return valid, fmt.Errorf("%w %d at offset %d", ErrFrameType, typ, valid)
		}
		if err := dec.Done(); err != nil {
			return valid, fmt.Errorf("%w: frame at offset %d is not one record", err, valid)
		}
		valid += frameHeader + plen + 4
		db.marks = append(db.marks, frameMark{seq: seq, end: valid})
	}
	return valid, nil
}

// frameMark records where a replayed frame ends in the WAL file.
type frameMark struct {
	seq uint64
	end int64
}

func (db *DB) insertAccess(rec AccessRecord) {
	pos := db.accesses.push(rec)
	db.byDevice[rec.Device] = append(db.byDevice[rec.Device], pos)
	db.byFile[rec.FileID] = append(db.byFile[rec.FileID], pos)
	if rec.Seq >= db.nextSeq {
		db.nextSeq = rec.Seq + 1
	}
}

func (db *DB) insertMovement(m MovementRecord) {
	db.movements = append(db.movements, m)
	if m.Seq >= db.nextSeq {
		db.nextSeq = m.Seq + 1
	}
}

var errClosed = errors.New("replaydb: database is closed")

// writeFrame appends the frame built in db.frame to the WAL, syncing when
// SyncEvery says so. The caller holds db.mu and has checked that there is
// a log.
func (db *DB) writeFrame() error {
	if _, err := db.w.Write(db.frame); err != nil {
		return err
	}
	db.unsynced++
	if db.opts.SyncEvery > 0 && db.unsynced >= db.opts.SyncEvery {
		//geomancy:allow locksafe journal flush to the local data file, bounded by disk latency, not a network peer
		if err := db.w.Flush(); err != nil {
			return err
		}
		if err := db.file.Sync(); err != nil {
			return err
		}
		db.unsynced = 0
	}
	return nil
}

// AppendAccess stores one access record, assigning its sequence number.
// The stored record (with Seq filled in) is returned.
func (db *DB) AppendAccess(rec AccessRecord) (AccessRecord, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return rec, errClosed
	}
	rec.Seq = db.nextSeq
	db.nextSeq++
	db.appended = true
	if db.w != nil { // a memory database has no log to encode for
		db.frame = appendAccessFrame(db.frame[:0], &rec)
		if err := db.writeFrame(); err != nil {
			return rec, fmt.Errorf("replaydb: appending access: %w", err)
		}
	}
	db.insertAccess(rec)
	db.accessInserts.Inc()
	return rec, nil
}

// AppendMovement stores one movement record.
func (db *DB) AppendMovement(m MovementRecord) (MovementRecord, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return m, errClosed
	}
	m.Seq = db.nextSeq
	db.nextSeq++
	db.appended = true
	if db.w != nil {
		db.frame = appendMovementFrame(db.frame[:0], &m)
		if err := db.writeFrame(); err != nil {
			return m, fmt.Errorf("replaydb: appending movement: %w", err)
		}
	}
	db.movements = append(db.movements, m)
	db.movementInserts.Inc()
	return m, nil
}

// Len returns the number of access records.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.accesses.n
}

// MovementCount returns the number of movement records.
func (db *DB) MovementCount() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.movements)
}

// All returns a copy of every access record in append order.
func (db *DB) All() []AccessRecord {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.accesses.tail(0)
}

// Movements returns a copy of every movement record in append order.
func (db *DB) Movements() []MovementRecord {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]MovementRecord, len(db.movements))
	copy(out, db.movements)
	return out
}

// RecentByDevice returns up to n most recent accesses observed on device,
// oldest first — the engine's per-device training query.
func (db *DB) RecentByDevice(device string, n int) []AccessRecord {
	db.mu.RLock()
	defer db.mu.RUnlock()
	db.queries.Inc()
	return db.collect(db.byDevice[device], n)
}

// MeanThroughputByDevice returns the mean throughput of the device's up to
// n most recent accesses, summed oldest first, or 0 when it has none — the
// policy snapshot's per-device digest, read in place: no record is copied.
func (db *DB) MeanThroughputByDevice(device string, n int) float64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	db.queries.Inc()
	positions := db.byDevice[device]
	positions = positions[max(len(positions)-max(n, 0), 0):]
	if len(positions) == 0 {
		return 0
	}
	var sum float64
	for _, p := range positions {
		sum += db.accesses.at(p).Throughput
	}
	return sum / float64(len(positions))
}

// RecentByFile returns up to n most recent accesses of the file, oldest
// first — the per-file batch query (§V-E: "The data is batched by data
// ID").
func (db *DB) RecentByFile(fileID int64, n int) []AccessRecord {
	db.mu.RLock()
	defer db.mu.RUnlock()
	db.queries.Inc()
	return db.collect(db.byFile[fileID], n)
}

// Recent returns up to n most recent accesses across all devices, oldest
// first.
func (db *DB) Recent(n int) []AccessRecord {
	db.mu.RLock()
	defer db.mu.RUnlock()
	db.queries.Inc()
	return db.accesses.tail(max(db.accesses.n-max(n, 0), 0))
}

func (db *DB) collect(positions []int, n int) []AccessRecord {
	if n <= 0 {
		return nil
	}
	start := len(positions) - n
	if start < 0 {
		start = 0
	}
	out := make([]AccessRecord, 0, len(positions)-start)
	for _, p := range positions[start:] {
		out = append(out, *db.accesses.at(p))
	}
	return out
}

// Sync flushes buffered WAL writes to stable storage.
func (db *DB) Sync() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return errClosed
	}
	if db.w == nil {
		return nil
	}
	//geomancy:allow locksafe db.w wraps the local WAL file, not a socket; disk flush latency is bounded
	if err := db.w.Flush(); err != nil {
		return err
	}
	db.unsynced = 0
	return db.file.Sync()
}

// Close flushes and closes the WAL. The database rejects writes afterwards.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	if db.w == nil {
		return nil
	}
	//geomancy:allow locksafe db.w wraps the local WAL file, not a socket; disk flush latency is bounded
	if err := db.w.Flush(); err != nil {
		db.file.Close()
		return err
	}
	if err := db.file.Sync(); err != nil {
		db.file.Close()
		return err
	}
	return db.file.Close()
}
