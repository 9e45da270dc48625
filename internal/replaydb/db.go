package replaydb

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
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
	validLen, err := db.replay(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(validLen); err != nil {
		f.Close()
		return nil, fmt.Errorf("replaydb: truncating torn WAL tail: %w", err)
	}
	if _, err := f.Seek(validLen, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("replaydb: seeking WAL: %w", err)
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

// replay loads every intact frame from f, returning the byte offset of the
// end of the last valid frame.
func (db *DB) replay(f *os.File) (int64, error) {
	r := bufio.NewReader(f)
	hdr := make([]byte, len(magic))
	n, err := io.ReadFull(r, hdr)
	if errors.Is(err, io.EOF) || (errors.Is(err, io.ErrUnexpectedEOF) && n < len(magic)) {
		return 0, nil // empty or stub file: start fresh
	}
	if err != nil {
		return 0, fmt.Errorf("replaydb: reading WAL header: %w", err)
	}
	if string(hdr) != string(magic) {
		return 0, fmt.Errorf("replaydb: %s is not a ReplayDB WAL (bad magic)", f.Name())
	}
	valid := int64(len(magic))
	var frame [5]byte
	for {
		if _, err := io.ReadFull(r, frame[:]); err != nil {
			break // clean EOF or torn header: stop at last valid offset
		}
		typ := recordType(frame[0])
		plen := binary.LittleEndian.Uint32(frame[1:5])
		payload := make([]byte, plen+4)
		if _, err := io.ReadFull(r, payload); err != nil {
			break // torn payload
		}
		body := payload[:plen]
		want := binary.LittleEndian.Uint32(payload[plen:])
		if crc32.Checksum(body, crcTable) != want {
			break // corrupt frame: treat as torn tail
		}
		var seq uint64
		switch typ {
		case frameAccess:
			rec, err := decodeAccess(body)
			if err != nil {
				return valid, err
			}
			db.insertAccess(rec)
			seq = rec.Seq
		case frameMovement:
			m, err := decodeMovement(body)
			if err != nil {
				return valid, err
			}
			db.insertMovement(m)
			seq = m.Seq
		default:
			// Unknown frame type: future format. Stop replay here.
			return valid, nil
		}
		valid += int64(5 + len(payload))
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

// writeFrame appends one frame to the WAL (no-op for memory databases).
func (db *DB) writeFrame(typ recordType, payload []byte) error {
	if db.w == nil {
		return nil
	}
	var hdr [5]byte
	hdr[0] = byte(typ)
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := db.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := db.w.Write(payload); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(payload, crcTable))
	if _, err := db.w.Write(crc[:]); err != nil {
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
	if err := db.writeFrame(frameAccess, encodeAccess(&rec)); err != nil {
		return rec, fmt.Errorf("replaydb: appending access: %w", err)
	}
	db.insertAccessNoSeq(rec)
	db.accessInserts.Inc()
	return rec, nil
}

// insertAccessNoSeq is insertAccess without the nextSeq adjustment (the
// caller already assigned the sequence number).
func (db *DB) insertAccessNoSeq(rec AccessRecord) {
	pos := db.accesses.push(rec)
	db.byDevice[rec.Device] = append(db.byDevice[rec.Device], pos)
	db.byFile[rec.FileID] = append(db.byFile[rec.FileID], pos)
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
	if err := db.writeFrame(frameMovement, encodeMovement(&m)); err != nil {
		return m, fmt.Errorf("replaydb: appending movement: %w", err)
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
	start := db.accesses.n - n
	if start < 0 {
		start = 0
	}
	return db.accesses.tail(start)
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

// TimeRange returns all accesses with Time in [from, to), oldest first.
func (db *DB) TimeRange(from, to float64) []AccessRecord {
	db.mu.RLock()
	defer db.mu.RUnlock()
	db.queries.Inc()
	var out []AccessRecord
	for i := 0; i < db.accesses.n; i++ {
		if rec := db.accesses.at(i); rec.Time >= from && rec.Time < to {
			out = append(out, *rec)
		}
	}
	return out
}

// Devices returns the set of device names that have recorded accesses.
func (db *DB) Devices() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.byDevice))
	for d := range db.byDevice {
		out = append(out, d)
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
