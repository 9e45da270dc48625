package core

import (
	"cmp"
	"slices"

	"geomancy/internal/policy"
	"geomancy/internal/storagesim"
)

// Candidate pruning (Config.TopK > 0) makes the scoring hot path sublinear
// in the device axis. An all-device pass builds and scores all
// files×devices rows; a pruned decision scores each file only
//
//   - against a device shortlist — the top K devices by recent effective
//     throughput (storagesim.DeviceSummary), ranked together across the
//     cluster, always including the file's current device;
//   - from feature ingredients cached per file across decisions, refetched
//     only for files whose telemetry changed since the last pass — the
//     dirty set, answered by the ReplayDB's append watermark
//     (ChangeTracker) instead of re-reading every file's history.
//
// Scores are never cached: every decision scores its candidates under the
// model it runs on (the policy retrains before every decision, so a
// cross-decision score could never be current).
//
// Exactness contract: the first decision and every FullRescanEvery-th one
// refetch every file's features and shortlist every device, so pruning
// error cannot accumulate past one cadence window. Between rescans a file
// decides over the shortlist ∪ {current device}, each score bit-identical
// to the all-device pass's for the same pairing (batching never changes a
// row's arithmetic, and a clean file's cached features are the ones a
// refetch would return). Exploration always shuffles the full device list
// (selectLayout), so a pruned run and an unpruned run of the same seed
// consume identical randomness, and agree on the chosen layout whenever
// the shortlist covers the argmax device.

// ChangeTracker is the optional dirty-tracking view of a TelemetryStore.
// The local *replaydb.DB implements it; a store that does not (e.g. a
// remote daemon without the extension) degrades the pruned path to
// treating every file as changed on every decision — still O(files×K).
type ChangeTracker interface {
	// Watermark returns the sequence number of the newest record.
	Watermark() uint64
	// FilesChangedSince returns IDs of files with access records appended
	// after seq, sorted ascending.
	FilesChangedSince(seq uint64) []int64
	// FileLastSeq returns the sequence number of the file's newest access
	// record, 0 if none.
	FileLastSeq(fileID int64) uint64
}

// SummarySource supplies the per-device recent-throughput digests the
// shortlist ranks; typically storagesim.(*Cluster).DeviceSummaries.
type SummarySource func() []storagesim.DeviceSummary

// SetSummarySource installs the device-summary provider the pruned path
// builds shortlists from. Without one, pruning still keeps clean files'
// features but shortlists every device.
func (e *Engine) SetSummarySource(src SummarySource) { e.summarySource = src }

// fileCache is one file's feature entry: the raw ingredients of its
// candidate rows, valid until the file's telemetry or size changes.
type fileCache struct {
	size      int64
	featValid bool
	feat      fileFeatures
}

// ensureCache returns the file's entry, creating it, or marking its
// features stale if the file's size changed. Only a pruning engine retains
// what it creates; with TopK = 0 every entry is per-decision scratch,
// private to its slot in the file list.
func (e *Engine) ensureCache(f policy.FileInfo) *fileCache {
	ent, ok := e.cache[f.ID]
	if !ok {
		ent = &fileCache{size: f.Size}
		if e.cfg.TopK > 0 {
			e.cache[f.ID] = ent
		}
	} else if ent.size != f.Size {
		ent.size = f.Size
		ent.featValid = false
	}
	return ent
}

// fullRescanDue reports whether the next pruned-mode decision must be an
// all-device pass: always the first, then every FullRescanEvery-th.
func (e *Engine) fullRescanDue() bool {
	if e.decisionCount == 0 {
		return true
	}
	return e.cfg.FullRescanEvery > 0 && e.decisionCount%uint64(e.cfg.FullRescanEvery) == 0
}

// invalidateAll marks every cached entry's features stale.
func (e *Engine) invalidateAll() {
	for _, ent := range e.cache {
		ent.featValid = false
	}
}

// invalidateChanged marks stale the entries of files whose telemetry moved
// past the last scoring watermark, and advances the watermark. Without a
// ChangeTracker nothing can be trusted across decisions; the shortlist
// still prunes the device axis.
func (e *Engine) invalidateChanged() {
	if e.tracker == nil {
		e.invalidateAll()
		return
	}
	for _, id := range e.tracker.FilesChangedSince(e.lastWatermark) {
		if ent, ok := e.cache[id]; ok {
			ent.featValid = false
		}
	}
	e.lastWatermark = e.tracker.Watermark()
}

// endFullPass closes an all-device pass over files. With pruning on, the
// pass's entries become the whole cache — files that left the working set
// drop out, so full passes bound cache growth as well as pruning error —
// and the dirty watermark advances. With pruning off the entries were
// per-decision scratch: nothing is retained and the watermark never moves,
// so an unpruned engine's checkpoints carry no pruning state.
func (e *Engine) endFullPass(files []policy.FileInfo, tasks []scoreTask) {
	if e.cfg.TopK == 0 {
		return
	}
	clear(e.cache)
	for i, f := range files {
		e.cache[f.ID] = tasks[i].ent
	}
	if e.tracker != nil {
		e.lastWatermark = e.tracker.Watermark()
	}
}

// allDevices returns every device index, ascending.
func (e *Engine) allDevices() []int {
	out := make([]int, len(e.devices))
	for i := range out {
		out[i] = i
	}
	return out
}

// deviceShortlist returns the sorted device indices a pruned decision
// scores dirty files against: the top K devices by recent throughput,
// ranked together across the cluster, skipping devices no move could
// target (unavailable or read-only). Devices whose summary carries only the
// nominal-bandwidth fallback (DeviceSummary.Nominal — never probed by any
// access) are always shortlisted regardless of rank: their fallback
// throughput is a spec-sheet guess, and a device whose guess ranks below
// measured rates would otherwise never be probed until the next full
// rescan. Ties break toward profile order, and the result is ascending by
// device index, so shortlists are deterministic — in particular, a
// shortlist built from restored summaries equals the one the original run
// built.
// Without a summary source every device is shortlisted.
func (e *Engine) deviceShortlist() []int {
	if e.summarySource == nil {
		return e.allDevices()
	}
	type ranked struct {
		idx int
		tp  float64
	}
	var rs []ranked
	var out []int
	for _, s := range e.summarySource() {
		j, ok := e.devIndex[s.Name]
		if !ok || !s.Available || s.ReadOnly {
			continue
		}
		if s.Nominal {
			out = append(out, j)
		}
		rs = append(rs, ranked{j, s.RecentThroughput})
	}
	slices.SortStableFunc(rs, func(a, b ranked) int { return cmp.Compare(b.tp, a.tp) })
	for _, r := range rs[:min(e.cfg.TopK, len(rs))] {
		out = append(out, r.idx)
	}
	// Nominal devices may double up with top-K winners.
	slices.Sort(out)
	return slices.Compact(out)
}

// scoreTask is one file's scoring work: its feature entry, the device
// indices to score (ascending), where its rows — and its scores in the
// pool's score slice — start among the decision's, and, once its run is
// scored, the file's greedy pick (select.go). The decision body lives in
// propose.go: prepare builds the task list via pruneTasks.
type scoreTask struct {
	ent  *fileCache
	devs []int
	base int
	pick int
}
