package core

import (
	"sort"

	"geomancy/internal/policy"
	"geomancy/internal/storagesim"
)

// Candidate pruning (Config.TopK > 0) makes the scoring hot path sublinear
// in the candidate space. An all-device pass builds and scores all
// files×devices rows; at warehouse scale almost all of that work re-derives
// scores that cannot have changed. Every decision keeps a per-file entry of
// candidate scores tagged with the model generation that produced them;
// with pruning on the entries persist across decisions as a cache, and a
// decision scores only:
//
//   - files whose telemetry changed since the last pass — the dirty set,
//     answered by the ReplayDB's append watermark (ChangeTracker) instead
//     of re-reading every file's history;
//   - against a device shortlist — the top-K devices per device class by
//     recent effective throughput (storagesim.DeviceSummary), always
//     including the file's current device;
//   - plus anything the current model generation has not scored yet: a
//     retrain or incremental update bumps the generation, so fresh weights
//     never reuse stale scores.
//
// Exactness contract: the first decision and every FullRescanEvery-th one
// invalidate every file and shortlist every device, so pruning error
// cannot accumulate past one cadence window. Between rescans, a clean file
// whose entry still carries the full device width at the current
// generation decides over exactly the all-device candidate set,
// bit-identically (batching never changes a row's arithmetic); dirty or
// newly generated files decide over the shortlist ∪ {current device}.
// Exploration always shuffles the full device list (selectLayout), so a
// pruned run and an unpruned run of the same seed consume identical
// randomness, and agree on the chosen layout whenever the shortlist covers
// the argmax device.

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
// builds shortlists from. Without one, pruning still skips clean files
// but shortlists every device.
func (e *Engine) SetSummarySource(src SummarySource) { e.summarySource = src }

// fileCache is one file's scoring entry: raw feature ingredients (valid
// until the file's telemetry changes) and per-device candidate scores
// tagged with the model generation that produced them. gens[j] == 0 means
// never scored; entries are laid out in e.devices index order. The entry is
// the one home of a file's per-device score vector: the select stage reads
// it by index and a decision record carries only the chosen device's score.
type fileCache struct {
	size      int64
	featValid bool         //geomancy:ephemeral feature-cache validity bit, recomputed from telemetry after restore
	feat      fileFeatures //geomancy:ephemeral raw feature ingredients, recomputed from telemetry after restore
	scores    []float64
	gens      []uint64
}

// invalidate drops everything derived from the file's telemetry.
func (fc *fileCache) invalidate() {
	fc.featValid = false
	for i := range fc.gens {
		fc.gens[i] = 0
	}
}

// ensureCache returns the file's score entry, creating or resetting it if
// the device width or the file's size changed. Only a pruning engine
// retains what it creates; with TopK = 0 every entry is per-decision
// scratch, private to its slot in the file list.
func (e *Engine) ensureCache(f policy.FileInfo) *fileCache {
	ent, ok := e.cache[f.ID]
	if !ok || len(ent.gens) != len(e.devices) {
		ent = &fileCache{
			size:   f.Size,
			scores: make([]float64, len(e.devices)),
			gens:   make([]uint64, len(e.devices)),
		}
		if e.cfg.TopK > 0 {
			e.cache[f.ID] = ent
		}
	} else if ent.size != f.Size {
		ent.size = f.Size
		ent.invalidate()
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

// invalidateAll marks every cached entry stale.
func (e *Engine) invalidateAll() {
	for _, ent := range e.cache {
		ent.invalidate()
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
			ent.invalidate()
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
// scores dirty files against: the top-K devices per device class by
// recent effective throughput, skipping devices no move could target
// (unavailable or read-only). Devices whose summary carries only the
// nominal-bandwidth fallback (DeviceSummary.Nominal — never probed by any
// access) are always shortlisted regardless of rank: their fallback
// throughput is a spec-sheet guess, and a device whose guess ranks below
// its classmates' measured rates would otherwise never be probed until
// the next full rescan. Ties break toward profile order, and the result
// is ascending by device index, so shortlists are deterministic — in
// particular, a shortlist built from restored summaries equals the one
// the original run built.
// Without a summary source every device is shortlisted.
func (e *Engine) deviceShortlist() []int {
	if e.summarySource == nil {
		return e.allDevices()
	}
	type ranked struct {
		idx int
		tp  float64
	}
	byClass := make(map[string][]ranked)
	var classes []string
	var nominal []int
	for _, s := range e.summarySource() {
		j, ok := e.devIndex[s.Name]
		if !ok || !s.Available || s.ReadOnly {
			continue
		}
		if s.Nominal {
			nominal = append(nominal, j)
		}
		if _, seen := byClass[s.Class]; !seen {
			classes = append(classes, s.Class)
		}
		byClass[s.Class] = append(byClass[s.Class], ranked{j, s.RecentThroughput})
	}
	var out []int
	for _, cls := range classes {
		rs := byClass[cls]
		sort.SliceStable(rs, func(a, b int) bool { return rs[a].tp > rs[b].tp })
		n := e.cfg.TopK
		if n > len(rs) {
			n = len(rs)
		}
		for _, r := range rs[:n] {
			out = append(out, r.idx)
		}
	}
	out = append(out, nominal...)
	sort.Ints(out)
	// Nominal devices may double up with top-K winners; dedupe in place.
	dst := 0
	for i, v := range out {
		if i == 0 || v != out[dst-1] {
			out[dst] = v
			dst++
		}
	}
	return out[:dst]
}

// scoreTask is one file's scoring work: its score entry, the device
// indices to score (ascending; empty when every candidate is current),
// where its rows start among the decision's candidate rows, and — once
// its run is scored — the file's greedy pick (select.go). The decision
// body lives in propose.go: prepare builds the task list via pruneTasks.
type scoreTask struct {
	ent  *fileCache
	devs []int
	base int
	pick int
}
