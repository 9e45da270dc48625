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
//   - against a device shortlist — the top K devices of its unit by recent
//     effective throughput (storagesim.DeviceSummary), ranked together
//     across the unit (for a lone engine, the cluster), always including
//     the file's current device;
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
// refetch would return). Exploration always shuffles the unit's full
// device list (selectLayout), so a pruned run and an unpruned run of the
// same seed consume identical randomness, and agree on the chosen layout
// whenever the shortlist covers the argmax device.

// ChangeTracker is the optional dirty-tracking view of a TelemetryStore:
// the append watermark a pruned pass records, and the files changed since
// the last one. The local *replaydb.DB implements it; a store that does
// not (e.g. a remote daemon without the extension) degrades the pruned
// path to treating every file as changed on every decision — still
// O(files×K).
type ChangeTracker interface {
	// Watermark returns the sequence number of the newest record.
	Watermark() uint64
	// FilesChangedSince returns IDs of files with access records appended
	// after seq, sorted ascending.
	FilesChangedSince(seq uint64) []int64
}

// SummarySource supplies the per-device recent-throughput digests the
// shortlist ranks; typically storagesim.(*Cluster).DeviceSummaries.
type SummarySource func() []storagesim.DeviceSummary

// SetSummarySource installs the device-summary provider the pruned path
// builds every unit's shortlist from. Without one, pruning still keeps
// clean files' features but shortlists every device.
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
// watermark, ascending, in one query of the store, and records in e.prep
// the cached entries among them. Without a ChangeTracker nothing can be
// trusted across decisions (e.prep.staleAll); the shortlist still prunes
// the device axis.
func (e *Engine) dirtySet() []int64 {
	if e.tracker == nil {
		return nil
	}
	p := &e.prep
	changed := e.tracker.FilesChangedSince(e.lastWatermark)
	for _, id := range changed {
		if ent, ok := e.cache[id]; ok {
			p.stale = append(p.stale, ent)
		}
	}
	return changed
}

// commit makes the prepared decision over units the engine's, once its
// model is fit. It steps the cadence. Then, unless the engine does not
// prune (TopK 0: nothing is retained and the watermark never moves, so an
// unpruned engine's checkpoints carry no pruning state), it drops what the
// decision found stale — the whole cache on an all-device pass, whose
// entries then become the whole cache, so files that left the working set
// drop out and full passes bound cache growth as well as pruning error —
// keeps every unit's working-set features and advances the dirty
// watermark. A file that changed units keeps its entry: the entry is what
// a gather would return until the file's telemetry or size changes.
func (e *Engine) commit(units []shardUnit) {
	p := &e.prep
	e.decisionCount++
	switch {
	case p.full && e.cfg.TopK == 0:
		return
	case p.full:
		clear(e.cache)
	case p.staleAll:
		for _, ent := range e.cache {
			ent.featValid = false
		}
	}
	for _, ent := range p.stale {
		ent.featValid = false
	}
	for i := range units {
		e.keep(&units[i])
	}
	if e.tracker != nil {
		e.lastWatermark = p.watermark
	}
}

// keep stores the features of every file unit u's decision scores as the
// file's cache entry, creating the entry if the file has none: fresh ones
// where prepare gathered, the entry's own where it was current. A full
// pass, whose commit cleared the cache, puts every entry back.
func (e *Engine) keep(u *shardUnit) {
	for i := range u.tasks {
		t := &u.tasks[i]
		if t.rows(u.short) == 0 {
			continue
		}
		f := e.prep.files[t.file]
		if t.ent == nil {
			t.ent = new(fileCache)
			e.cache[f.ID] = t.ent
		} else if e.prep.full {
			e.cache[f.ID] = t.ent
		}
		*t.ent = fileCache{size: f.Size, featValid: true, feat: t.feat}
	}
}

// shortlist sets every unit's shortlist for the decision e.prep opened:
// the unit's whole group on an all-device pass or without a summary
// source, else the device indices a pruned decision scores dirty files
// against — the unit's top K devices by recent throughput, skipping
// devices no move could target (unavailable or read-only), and every
// device of the unit whose summary carries only the nominal-bandwidth
// fallback (DeviceSummary.Nominal — never probed by any access) whatever
// its rank: its fallback throughput is a spec-sheet guess, and a device
// whose guess ranks below measured rates would otherwise never be probed
// until the next full rescan. One ranking of the summaries serves every
// unit: a stable sort of the whole list keeps each unit's devices in the
// order a sort of the unit's alone gives. Ties break toward profile order,
// and each shortlist is ascending by device index, so shortlists are
// deterministic — in particular, a shortlist built from restored summaries
// equals the one the original run built.
func (m *EngineModel) shortlist() {
	e := m.Engine
	if e.prep.full || e.summarySource == nil {
		for i := range m.units {
			m.units[i].short = m.units[i].devs
		}
		return
	}
	type ranked struct {
		idx     int
		tp      float64
		nominal bool
	}
	var rs []ranked
	for _, s := range e.summarySource() {
		if j, ok := e.devIndex[s.Name]; ok && s.Available && !s.ReadOnly {
			rs = append(rs, ranked{j, s.RecentThroughput, s.Nominal})
		}
	}
	slices.SortStableFunc(rs, func(a, b ranked) int { return cmp.Compare(b.tp, a.tp) })
	for i := range m.units {
		m.units[i].short = nil
	}
	for _, r := range rs {
		if u := &m.units[m.unitOf(r.idx)]; len(u.short) < e.cfg.TopK {
			u.short = append(u.short, r.idx)
		}
	}
	for _, r := range rs {
		if r.nominal {
			u := &m.units[m.unitOf(r.idx)]
			u.short = append(u.short, r.idx)
		}
	}
	for i := range m.units {
		// Nominal devices may double up with top-K winners.
		u := &m.units[i]
		slices.Sort(u.short)
		u.short = slices.Compact(u.short)
	}
}

// scoreTask is one file's scoring work: its cache entry (nil if it has
// none yet) and the feature ingredients its rows are built from, where its
// rows — and its scores in the pool's score slice — start among the
// decision's, the file's index in the working set, its current device when
// the shortlist lacks it (-1 otherwise), and, once its run is scored, its
// greedy pick (select.go). The decision body lives in propose.go.
type scoreTask struct {
	ent   *fileCache
	feat  fileFeatures
	base  int32
	file  int32
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
