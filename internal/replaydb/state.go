package replaydb

import (
	"fmt"
	"io"
)

// Watermark returns the highest sequence number assigned so far (0 when
// the database is empty). The checkpoint plane records it so a restored
// run can discard WAL records written after the snapshot was taken and
// regenerate them deterministically.
func (db *DB) Watermark() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.nextSeq - 1
}

// Horizon returns the retention horizon the database was opened with.
func (db *DB) Horizon() Horizon { return db.opts.Horizon }

// TruncateTo discards every record with a sequence number greater than
// seq, from the WAL file — physically truncated at the matching frame
// boundary — and from memory, which it rebuilds by re-reading the log up to
// that frame: under a horizon, the records that later appends evicted are
// needed again. The next append is assigned seq+1, so a resumed run
// regenerates the discarded tail with identical sequence numbers.
//
// TruncateTo is a recovery-time operation on a file-backed database: it is
// only valid on a freshly opened one, before any appends.
func (db *DB) TruncateTo(seq uint64) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return errClosed
	}
	if db.file == nil {
		return fmt.Errorf("replaydb: TruncateTo on a memory database, which has no log to cut")
	}
	if db.appended {
		return fmt.Errorf("replaydb: TruncateTo after appends; truncate immediately after Open")
	}
	if seq >= db.nextSeq-1 {
		return nil // nothing recorded past seq
	}
	info, err := db.file.Stat()
	if err != nil {
		return fmt.Errorf("replaydb: truncating WAL to seq %d: %w", seq, err)
	}
	if _, err := db.file.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("replaydb: truncating WAL to seq %d: %w", seq, err)
	}
	db.reset()
	end, err := db.replay(db.file, info.Size(), seq)
	if err != nil {
		return fmt.Errorf("replaydb: re-reading WAL to seq %d: %w", seq, err)
	}
	db.nextSeq = seq + 1
	if err := db.file.Truncate(end); err != nil {
		return fmt.Errorf("replaydb: truncating WAL to seq %d: %w", seq, err)
	}
	if _, err := db.file.Seek(end, io.SeekStart); err != nil {
		return fmt.Errorf("replaydb: seeking WAL after truncate: %w", err)
	}
	db.w.Reset(db.file)
	if err := db.file.Sync(); err != nil {
		return fmt.Errorf("replaydb: syncing truncated WAL: %w", err)
	}
	return nil
}

// Bulkload restores an empty memory database from what another one
// exported — how a snapshot restores a memory-only replay log: accesses
// are the records it retained (All), count the access records it had
// appended (Len), and watermark its Watermark, which the next append
// continues from. The records must be in strictly increasing sequence
// order, none past the watermark, no more of them than count, and each one
// that AppendAccess would store (Validate).
// File-backed databases recover their records from the WAL instead, so
// Bulkload rejects them, as it does a database that already holds records.
func (db *DB) Bulkload(accesses []AccessRecord, count int, watermark uint64) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return errClosed
	}
	if db.file != nil {
		return fmt.Errorf("replaydb: Bulkload on a file-backed database; records replay from the WAL")
	}
	if db.nextSeq > 1 {
		return fmt.Errorf("replaydb: Bulkload into a non-empty database")
	}
	if count < len(accesses) {
		return fmt.Errorf("replaydb: Bulkload of %d records counted as %d appended", len(accesses), count)
	}
	var last uint64
	for i := range accesses {
		if seq := accesses[i].Seq; seq <= last || seq > watermark {
			return fmt.Errorf("replaydb: Bulkload record %d has seq %d after seq %d, watermark %d", i, seq, last, watermark)
		}
		if err := accesses[i].Validate(); err != nil {
			return fmt.Errorf("replaydb: Bulkload record %d: %w", i, err)
		}
		last = accesses[i].Seq
	}
	for i := range accesses {
		db.insertAccess(accesses[i])
	}
	db.count = count
	db.nextSeq = watermark + 1
	return nil
}
