package replaydb

// Dirty tracking: the candidate-pruning plane asks the ReplayDB which
// files gained telemetry since a watermark instead of re-reading every
// file's history each decision. Access records are appended with strictly
// increasing sequence numbers, so a file changed since seq exactly when its
// newest record's sequence number is past it; each file stream keeps that
// number, and "changed since seq" is one scan of the streams in file-ID
// order — O(files), with no record read and no per-call index built.

// FilesChangedSince returns the IDs of files with at least one access
// record appended after seq (the value a prior Watermark call returned),
// sorted ascending for a deterministic order. A watermark at or past the
// newest record returns nil.
func (db *DB) FilesChangedSince(seq uint64) []int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	db.queries.Inc()
	n := 0
	for _, s := range db.files {
		if s.lastSeq > seq {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]int64, 0, n)
	for _, s := range db.files {
		if s.lastSeq > seq {
			out = append(out, s.id)
		}
	}
	return out
}

// FileLastSeq returns the sequence number of the file's newest access
// record — its per-file change counter. A file with no recorded accesses
// returns 0. Two calls returning the same value bracket a window in which
// the file's telemetry (and therefore any feature derived from it) did
// not change.
func (db *DB) FileLastSeq(fileID int64) uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if s := db.byFile[fileID]; s != nil {
		return s.lastSeq
	}
	return 0
}
