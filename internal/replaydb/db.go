package replaydb

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
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
	// Horizon bounds what the database keeps in memory; the zero Horizon
	// keeps every record. The WAL holds every record either way.
	Horizon Horizon
}

// Horizon is a retention horizon: a database opened with one keeps in
// memory each device's newest PerDevice access records and each file's
// newest PerFile, and nothing else — no movement record and no global log,
// so its live heap stops growing once every device and file has been seen.
// Set both or neither; the zero Horizon keeps every record for the life of
// the database.
//
// A query for more records than the horizon keeps, on a device or file
// whose ring is full, panics: the answer needs records that are gone, and
// a shorter one would be silently wrong. Recent, Summary, Movements and
// MovementCount need the whole log and panic under any horizon.
type Horizon struct {
	PerDevice, PerFile int
}

// DB is the ReplayDB: an append-only store of access and movement records
// with in-memory indexes. All methods are safe for concurrent use.
type DB struct {
	mu sync.RWMutex

	// Access records, by device and by file. A keep-all database also holds
	// every one in accesses, in append order, and its streams index it; under
	// a horizon accesses stays empty and the streams hold their records.
	accesses accessLog
	byDevice map[string]*stream
	byFile   map[int64]*stream
	files    []*stream // byFile's streams, ascending by file ID
	count    int       // access records ever appended
	// movements is every movement record, kept at the zero horizon only.
	movements []MovementRecord
	nextSeq   uint64

	file     *os.File
	w        *bufio.Writer
	frame    []byte // the WAL frame being written; reused across appends
	opts     Options
	unsynced int
	closed   bool

	// appended flips on the first live write, after which TruncateTo is
	// refused.
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
	if h := opts.Horizon; h.PerDevice < 0 || h.PerFile < 0 || (h.PerDevice == 0) != (h.PerFile == 0) {
		return nil, fmt.Errorf("replaydb: horizon %+v: set PerDevice and PerFile both positive, or neither", h)
	}
	db := &DB{opts: opts}
	db.reset()
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
	validLen, err := db.replay(f, info.Size(), math.MaxUint64)
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

// replay loads the intact frames of a WAL of size bytes read from src, up
// to and including the one whose record has sequence number upTo, and
// returns the byte offset where the last frame it loaded ends — for
// TruncateTo, where the log is cut. A frame that is cut short, fails its
// checksum, or declares a payload longer than the bytes left in the log is
// the torn tail: replay stops in front of it. An intact frame that is not
// one record of a known type, or holds an access record that fails
// Validate, is an error. The declared length is never
// trusted further than that, so the payload buffer — one, reused — is
// bounded by the size of the log itself.
func (db *DB) replay(src io.Reader, size int64, upTo uint64) (int64, error) {
	r := bufio.NewReader(src)
	hdr := make([]byte, len(magic))
	//geomancy:allow locksafe r buffers the local WAL file, not a socket; disk read latency is bounded
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
		//geomancy:allow locksafe the local WAL file, as for the header
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
		//geomancy:allow locksafe the local WAL file, as for the header
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
		var rec AccessRecord
		var m MovementRecord
		switch typ {
		case frameAccess:
			rec = dec.Access()
		case frameMovement:
			m = dec.Movement()
		default:
			// Checksum-valid, so not a torn tail: a newer writer's frame.
			// Cutting the log here would destroy every record behind it.
			return valid, fmt.Errorf("%w %d at offset %d", ErrFrameType, typ, valid)
		}
		if err := dec.Done(); err != nil {
			return valid, fmt.Errorf("%w: frame at offset %d is not one record", err, valid)
		}
		if typ == frameAccess {
			// A record AppendAccess would refuse, in an intact frame: an
			// error, as an unknown frame type is, not a tail to cut.
			if err := rec.Validate(); err != nil {
				return valid, fmt.Errorf("%w: frame at offset %d", err, valid)
			}
		}
		if max(rec.Seq, m.Seq) > upTo { // the frame's record is the nonzero one
			break
		}
		if typ == frameAccess {
			db.insertAccess(rec)
		} else {
			db.insertMovement(m)
		}
		valid += frameHeader + plen + 4
	}
	return valid, nil
}

// reset empties the database's memory: the state Open starts from, and
// TruncateTo rebuilds from.
func (db *DB) reset() {
	db.accesses = accessLog{}
	db.byDevice = make(map[string]*stream)
	db.byFile = make(map[int64]*stream)
	db.files = nil
	db.count = 0
	db.movements = nil
	db.nextSeq = 1
}

// keepsAll reports whether the database was opened with the zero horizon.
func (db *DB) keepsAll() bool { return db.opts.Horizon.PerDevice == 0 }

func (db *DB) insertAccess(rec AccessRecord) {
	dev := db.byDevice[rec.Device]
	if dev == nil {
		dev = &stream{ring: make([]AccessRecord, 0, db.opts.Horizon.PerDevice)}
		db.byDevice[rec.Device] = dev
	}
	file := db.byFile[rec.FileID]
	if file == nil {
		file = &stream{id: rec.FileID, ring: make([]AccessRecord, 0, db.opts.Horizon.PerFile)}
		db.byFile[rec.FileID] = file
		i, _ := slices.BinarySearchFunc(db.files, rec.FileID, func(s *stream, id int64) int { return cmp.Compare(s.id, id) })
		db.files = slices.Insert(db.files, i, file)
	}
	if db.keepsAll() {
		pos := db.accesses.push(rec)
		dev.pos = append(dev.pos, pos)
		file.pos = append(file.pos, pos)
	} else {
		dev.push(rec)
		file.push(rec)
	}
	file.lastSeq = rec.Seq
	db.count++
	if rec.Seq >= db.nextSeq {
		db.nextSeq = rec.Seq + 1
	}
}

// insertMovement takes the movement's sequence number; only a keep-all
// database holds the record itself.
func (db *DB) insertMovement(m MovementRecord) {
	if db.keepsAll() {
		db.movements = append(db.movements, m)
	}
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
// The stored record (with Seq filled in) is returned. A record that fails
// Validate is refused with ErrInvalidRecord and stores nothing.
func (db *DB) AppendAccess(rec AccessRecord) (AccessRecord, error) {
	if err := rec.Validate(); err != nil {
		return rec, err
	}
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
	db.insertMovement(m)
	db.movementInserts.Inc()
	return m, nil
}

// Len returns the number of access records ever appended, retained or
// not.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.count
}

// MovementCount returns the number of movement records. It needs every
// record, so it panics under a horizon.
func (db *DB) MovementCount() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	db.mustKeepAll("MovementCount")
	return len(db.movements)
}

// All returns a copy of every retained access record in sequence order:
// every record in a keep-all database; under a horizon, the union of the
// device and file rings — what a memory-backed snapshot carries.
func (db *DB) All() []AccessRecord {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.keepsAll() {
		return db.accesses.tail(0)
	}
	var out []AccessRecord
	for _, s := range db.byDevice {
		out = append(append(out, s.ring[s.head:]...), s.ring[:s.head]...)
	}
	for _, s := range db.files {
		out = append(append(out, s.ring[s.head:]...), s.ring[:s.head]...)
	}
	slices.SortFunc(out, func(a, b AccessRecord) int { return cmp.Compare(a.Seq, b.Seq) })
	return slices.CompactFunc(out, func(a, b AccessRecord) bool { return a.Seq == b.Seq })
}

// Movements returns a copy of every movement record in append order. It
// panics under a horizon, which keeps movement records in the WAL only.
func (db *DB) Movements() []MovementRecord {
	db.mu.RLock()
	defer db.mu.RUnlock()
	db.mustKeepAll("Movements")
	out := make([]MovementRecord, len(db.movements))
	copy(out, db.movements)
	return out
}

// mustKeepAll panics under a horizon: the named query reads records a
// horizon does not keep.
func (db *DB) mustKeepAll(query string) {
	if !db.keepsAll() {
		panic(fmt.Sprintf("replaydb: %s needs every record; the database keeps a horizon of %+v", query, db.opts.Horizon))
	}
}

// pastHorizon is the panic message of a query for the newest n records of
// a device or file that keeps only keep.
func pastHorizon(of string, n, keep int) string {
	return fmt.Sprintf("replaydb: %d most recent accesses of %s requested past the retention horizon of %d", n, of, keep)
}

// EachRecentByDevice calls fn on each of the up to n most recent accesses
// observed on device, oldest first, in place: no record is copied — the
// engine's per-device training query. fn runs under the database's read
// lock, so it must not call back into the database (a second read lock
// queues behind any writer waiting on the first, and deadlocks), and it must
// not keep the pointer it is given: a later append overwrites the record.
func (db *DB) EachRecentByDevice(device string, n int, fn func(*AccessRecord)) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	db.queries.Inc()
	db.eachByDevice(device, n, fn)
}

// EachRecentByFile is EachRecentByDevice for the file's up to n most recent
// accesses — the per-file batch query (§V-E: "The data is batched by data
// ID"). The same two rules bind fn.
func (db *DB) EachRecentByFile(fileID int64, n int, fn func(*AccessRecord)) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	db.queries.Inc()
	db.eachByFile(fileID, n, fn)
}

// RecentByDevice returns a copy of what EachRecentByDevice walks.
func (db *DB) RecentByDevice(device string, n int) []AccessRecord {
	db.mu.RLock()
	defer db.mu.RUnlock()
	db.queries.Inc()
	out := db.byDevice[device].alloc(n)
	db.eachByDevice(device, n, func(rec *AccessRecord) { out = append(out, *rec) })
	return out
}

// RecentByFile returns a copy of what EachRecentByFile walks.
func (db *DB) RecentByFile(fileID int64, n int) []AccessRecord {
	db.mu.RLock()
	defer db.mu.RUnlock()
	db.queries.Inc()
	out := db.byFile[fileID].alloc(n)
	db.eachByFile(fileID, n, func(rec *AccessRecord) { out = append(out, *rec) })
	return out
}

// MeanThroughputByDevice returns the mean throughput of the device's up to
// n most recent accesses, summed oldest first, or 0 when it has none — the
// policy snapshot's per-device digest, read in place.
func (db *DB) MeanThroughputByDevice(device string, n int) float64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	db.queries.Inc()
	var sum float64
	var k int
	db.eachByDevice(device, n, func(rec *AccessRecord) {
		sum += rec.Throughput
		k++
	})
	if k == 0 {
		return 0
	}
	return sum / float64(k)
}

// eachByDevice and eachByFile are the walk under the caller's read lock.
func (db *DB) eachByDevice(device string, n int, fn func(*AccessRecord)) {
	if !db.each(db.byDevice[device], n, fn) {
		panic(pastHorizon("device "+device, n, db.opts.Horizon.PerDevice))
	}
}

func (db *DB) eachByFile(fileID int64, n int, fn func(*AccessRecord)) {
	if !db.each(db.byFile[fileID], n, fn) {
		panic(pastHorizon(fmt.Sprintf("file %d", fileID), n, db.opts.Horizon.PerFile))
	}
}

// each calls fn on the newest n records of s, oldest first, in place — the
// one walk of a stream. It returns false, having called fn on none, when
// they reach past the horizon.
func (db *DB) each(s *stream, n int, fn func(*AccessRecord)) bool {
	if s == nil || n <= 0 {
		return true
	}
	if db.keepsAll() {
		for _, p := range s.pos[max(len(s.pos)-n, 0):] {
			fn(db.accesses.at(p))
		}
		return true
	}
	older, newer, ok := s.newest(n)
	if !ok {
		return false
	}
	for i := range older {
		fn(&older[i])
	}
	for i := range newer {
		fn(&newer[i])
	}
	return true
}

// Recent returns up to n most recent accesses across all devices, oldest
// first. It needs the global log, so it panics under a horizon.
func (db *DB) Recent(n int) []AccessRecord {
	db.mu.RLock()
	defer db.mu.RUnlock()
	db.mustKeepAll("Recent")
	db.queries.Inc()
	return db.accesses.tail(max(db.accesses.n-max(n, 0), 0))
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
