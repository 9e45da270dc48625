package replaydb

import "fmt"

// Watermark returns the highest sequence number assigned so far (0 when
// the database is empty). The checkpoint plane records it so a restored
// run can discard WAL records written after the snapshot was taken and
// regenerate them deterministically.
func (db *DB) Watermark() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.nextSeq - 1
}

// TruncateTo discards every record with a sequence number greater than
// seq, from memory and — for a file-backed database — from the WAL file,
// which is physically truncated at the matching frame boundary. The next
// append is assigned seq+1, so a resumed run regenerates the discarded
// tail with identical sequence numbers.
//
// TruncateTo is a recovery-time operation: it is only valid on a freshly
// opened database, before any appends (frame offsets are tracked during
// WAL replay and are not maintained across live writes).
func (db *DB) TruncateTo(seq uint64) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return errClosed
	}
	if db.appended {
		return fmt.Errorf("replaydb: TruncateTo after appends; truncate immediately after Open")
	}
	if seq >= db.nextSeq-1 {
		return nil // nothing recorded past seq
	}

	accesses := db.accesses
	movements := db.movements
	db.accesses = accessLog{}
	db.movements = nil
	db.byDevice = make(map[string][]int)
	db.byFile = make(map[int64][]int)
	db.nextSeq = 1
	for i := 0; i < accesses.n; i++ {
		if rec := accesses.at(i); rec.Seq <= seq {
			db.insertAccess(*rec)
		}
	}
	for i := range movements {
		if movements[i].Seq <= seq {
			db.insertMovement(movements[i])
		}
	}
	db.nextSeq = seq + 1

	if db.file == nil {
		return nil
	}
	end := int64(len(magic))
	for _, m := range db.marks {
		if m.seq > seq {
			break
		}
		end = m.end
	}
	db.marks = db.marks[:0]
	if err := db.file.Truncate(end); err != nil {
		return fmt.Errorf("replaydb: truncating WAL to seq %d: %w", seq, err)
	}
	if _, err := db.file.Seek(end, 0); err != nil {
		return fmt.Errorf("replaydb: seeking WAL after truncate: %w", err)
	}
	db.w.Reset(db.file)
	if err := db.file.Sync(); err != nil {
		return fmt.Errorf("replaydb: syncing truncated WAL: %w", err)
	}
	return nil
}

// Bulkload inserts previously exported records into an empty memory
// database, preserving their sequence numbers — how a snapshot restores a
// memory-only replay log. File-backed databases recover their records
// from the WAL instead, so Bulkload rejects them, as it does a database
// that already holds records.
func (db *DB) Bulkload(accesses []AccessRecord, movements []MovementRecord) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return errClosed
	}
	if db.file != nil {
		return fmt.Errorf("replaydb: Bulkload on a file-backed database; records replay from the WAL")
	}
	if db.accesses.n > 0 || len(db.movements) > 0 {
		return fmt.Errorf("replaydb: Bulkload into a non-empty database")
	}
	for i := range accesses {
		db.insertAccess(accesses[i])
	}
	for i := range movements {
		db.insertMovement(movements[i])
	}
	db.appended = true
	return nil
}
