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

// current reports whether ent holds f's current feature ingredients: the
// entry exists, is valid, was gathered for f's size, and neither this pass
// (staleAll) nor the dirty set (changed, ascending) marks it stale.
func (p *prepared) current(ent *fileCache, f policy.FileInfo, changed []int64) bool {
	if ent == nil || p.staleAll || !ent.featValid || ent.size != f.Size {
		return false
	}
	_, dirty := slices.BinarySearch(changed, f.ID)
	return !dirty
}

// fullRescanDue reports whether the next pruned-mode decision must be an
// all-device pass: always the first, then every FullRescanEvery-th.
func (e *Engine) fullRescanDue() bool {
	if e.decisionCount == 0 {
		return true
	}
	return e.cfg.FullRescanEvery > 0 && e.decisionCount%uint64(e.cfg.FullRescanEvery) == 0
}

// dirtySet returns the files whose telemetry moved past the last scoring
// watermark as feed reports them, ascending, and records in e.prep the
// cached entries among them. Without a ChangeTracker nothing can be
// trusted across decisions (e.prep.staleAll); the shortlist still prunes
// the device axis.
func (e *Engine) dirtySet(feed ChangeTracker) []int64 {
	if feed == nil {
		return nil
	}
	p := &e.prep
	changed := feed.FilesChangedSince(e.lastWatermark)
	for _, id := range changed {
		if ent, ok := e.cache[id]; ok {
			p.stale = append(p.stale, ent)
		}
	}
	return changed
}

// invalidateAll marks every cached entry's features stale.
func (e *Engine) invalidateAll() {
	for _, ent := range e.cache {
		ent.featValid = false
	}
}

// commit makes the prepared decision the engine's, once its model is fit:
// it steps the cadence, then either closes an all-device pass
// (endFullPass) or marks stale what the dirty set named, keeps the
// working set's features and advances the dirty watermark.
func (e *Engine) commit() {
	p := &e.prep
	e.decisionCount++
	if p.full {
		e.endFullPass()
		return
	}
	if p.staleAll {
		e.invalidateAll()
	}
	for _, ent := range p.stale {
		ent.featValid = false
	}
	e.keep()
	if e.tracker != nil {
		e.lastWatermark = p.watermark
	}
}

// keep stores the features of every file the decision scores as the
// file's cache entry, creating the entry if the file has none: fresh ones
// where prepare gathered, the entry's own where it was current. A full
// pass, whose commit cleared the cache, puts every entry back.
func (e *Engine) keep() {
	p := &e.prep
	for i, f := range p.files {
		t := &p.tasks[i]
		if t.rows(p.short) == 0 {
			continue
		}
		if t.ent == nil {
			t.ent = new(fileCache)
			e.cache[f.ID] = t.ent
		} else if p.full {
			e.cache[f.ID] = t.ent
		}
		*t.ent = fileCache{size: f.Size, featValid: true, feat: t.feat}
	}
}

// endFullPass closes an all-device pass. With pruning on, the pass's
// entries become the whole cache — files that left the working set drop
// out, so full passes bound cache growth as well as pruning error — and
// the dirty watermark advances. With pruning off nothing is retained and
// the watermark never moves, so an unpruned engine's checkpoints carry no
// pruning state.
func (e *Engine) endFullPass() {
	if e.cfg.TopK == 0 {
		return
	}
	clear(e.cache)
	e.keep()
	if e.tracker != nil {
		e.lastWatermark = e.prep.watermark
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

// scoreTask is one file's scoring work: its cache entry (nil if it has
// none yet) and the feature ingredients its rows are built from, where its
// rows — and its scores in the pool's score slice — start among the
// decision's, the file's current device when the decision's shortlist
// lacks it (-1 otherwise), and, once its run is scored, the file's greedy
// pick (select.go). The decision body lives in propose.go.
type scoreTask struct {
	ent   *fileCache
	feat  fileFeatures
	base  int
	extra int32
	pick  int32
}

// rows returns how many devices the task scores over shortlist short.
func (t *scoreTask) rows(short []int) int {
	if t.extra >= 0 {
		return len(short) + 1
	}
	return len(short)
}

// devices returns the task's device indices over shortlist short,
// ascending: short itself when it holds the file's current device (or
// that device is unknown), else short with it inserted, written into buf.
func (t *scoreTask) devices(buf *[]int, short []int) []int {
	if t.extra < 0 {
		return short
	}
	at, _ := slices.BinarySearch(short, int(t.extra))
	*buf = append(append(append((*buf)[:0], short[:at]...), int(t.extra)), short[at:]...)
	return *buf
}

// slot returns where device j sits among the task's devices over short,
// and whether the task scores it at all.
func (t *scoreTask) slot(short []int, j int) (int, bool) {
	k, ok := slices.BinarySearch(short, j)
	if t.extra >= 0 {
		if j == int(t.extra) {
			return k, true
		}
		if int(t.extra) < j {
			k++
		}
	}
	return k, ok
}
