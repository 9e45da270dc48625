package replaydb

import "sort"

// Dirty tracking: the candidate-pruning plane asks the ReplayDB which
// files gained telemetry since a watermark instead of re-reading every
// file's history each decision. Access records are appended with strictly
// increasing sequence numbers, so "changed since seq" is a binary search
// for the first access past the watermark plus a scan of only the tail —
// O(log N + changed), never O(files).

// FilesChangedSince returns the IDs of files with at least one access
// record appended after seq (the value a prior Watermark call returned),
// sorted ascending for a deterministic order. A watermark at or past the
// newest record returns nil.
func (db *DB) FilesChangedSince(seq uint64) []int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	db.queries.Inc()
	n := db.accesses.n
	i := sort.Search(n, func(i int) bool { return db.accesses.at(i).Seq > seq })
	if i == n {
		return nil
	}
	seen := make(map[int64]struct{})
	out := make([]int64, 0, n-i)
	for ; i < n; i++ {
		id := db.accesses.at(i).FileID
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		out = append(out, id)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
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
	positions := db.byFile[fileID]
	if len(positions) == 0 {
		return 0
	}
	return db.accesses.at(positions[len(positions)-1]).Seq
}
