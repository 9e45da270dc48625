package replaydb

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
)

// Compact rewrites the WAL keeping only the most recent keepAccesses
// access records (movement records are always kept: they are the layout
// history). Memory state is trimmed to match. Compact is a no-op for
// memory-only databases beyond trimming, and for keepAccesses ≥ Len().
//
// The rewrite is atomic: a temporary WAL is written, synced, and renamed
// over the original, so a crash mid-compact preserves the old contents.
func (db *DB) Compact(keepAccesses int) error {
	if keepAccesses < 0 {
		return fmt.Errorf("replaydb: negative keep count %d", keepAccesses)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return errClosed
	}

	// Trim memory state.
	if keepAccesses < db.accesses.n {
		old := db.accesses
		db.accesses = accessLog{}
		db.byDevice = make(map[string][]int)
		db.byFile = make(map[int64][]int)
		for i := old.n - keepAccesses; i < old.n; i++ {
			db.insertAccess(*old.at(i))
		}
	}
	if db.w == nil {
		return nil
	}

	// Rewrite the WAL.
	//geomancy:allow locksafe db.w wraps the local WAL file, not a socket; disk flush latency is bounded
	if err := db.w.Flush(); err != nil {
		return fmt.Errorf("replaydb: compacting: %w", err)
	}
	tmpPath := db.opts.Path + ".compact"
	tmp, err := os.Create(tmpPath)
	if err != nil {
		return fmt.Errorf("replaydb: compacting: %w", err)
	}
	// One frame at a time through the DB's own frame buffer, as appends do;
	// the first failure of any step abandons the temporary file.
	bw := bufio.NewWriter(tmp)
	_, err = bw.Write(magic)
	for i := 0; i < db.accesses.n && err == nil; i++ {
		db.frame = appendAccessFrame(db.frame[:0], db.accesses.at(i))
		_, err = bw.Write(db.frame)
	}
	for i := 0; i < len(db.movements) && err == nil; i++ {
		db.frame = appendMovementFrame(db.frame[:0], &db.movements[i])
		_, err = bw.Write(db.frame)
	}
	if err == nil {
		//geomancy:allow locksafe bw wraps the local temporary WAL, not a socket; disk flush latency is bounded
		err = bw.Flush()
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmpPath, db.opts.Path)
	}
	if err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("replaydb: compacting: %w", err)
	}
	// Reopen the handle on the new file.
	old := db.file
	f, err := os.OpenFile(db.opts.Path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("replaydb: reopening after compact: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return fmt.Errorf("replaydb: reopening after compact: %w", err)
	}
	db.file = f
	db.w.Reset(f)
	old.Close()
	return nil
}

// ExportCSV writes every access record as CSV for external analysis.
func (db *DB) ExportCSV(w io.Writer) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	cw := csv.NewWriter(w)
	header := []string{"seq", "time", "workload", "run", "file_id", "path", "device",
		"rb", "wb", "ots", "otms", "cts", "ctms", "throughput"}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("replaydb: exporting CSV: %w", err)
	}
	for i := 0; i < db.accesses.n; i++ {
		r := db.accesses.at(i)
		row := []string{
			strconv.FormatUint(r.Seq, 10),
			strconv.FormatFloat(r.Time, 'g', -1, 64),
			strconv.FormatInt(int64(r.Workload), 10),
			strconv.FormatInt(int64(r.Run), 10),
			strconv.FormatInt(r.FileID, 10),
			r.Path,
			r.Device,
			strconv.FormatInt(r.BytesRead, 10),
			strconv.FormatInt(r.BytesWritten, 10),
			strconv.FormatInt(r.OpenTS, 10),
			strconv.FormatInt(r.OpenTMS, 10),
			strconv.FormatInt(r.CloseTS, 10),
			strconv.FormatInt(r.CloseTMS, 10),
			strconv.FormatFloat(r.Throughput, 'g', -1, 64),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("replaydb: exporting CSV: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}
