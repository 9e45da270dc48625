package core

import (
	"cmp"
	"slices"

	"geomancy/internal/mat"
	"geomancy/internal/replaydb"
)

// windowWalker is the in-place read of a TelemetryStore's recent windows.
// *replaydb.DB provides it: each EachRecent… call hands the window's
// records, oldest first, to fn under the database's read lock, copying
// nothing, so fn must not call back into the store nor keep the pointer it
// is given.
type windowWalker interface {
	EachRecentByDevice(device string, n int, fn func(*replaydb.AccessRecord))
	EachRecentByFile(fileID int64, n int, fn func(*replaydb.AccessRecord))
}

// walkerOf returns store's own walker or, for a store that answers only
// with copies (agents.RemoteStore), one that hands the records of each copy
// to the same callback. Like a ChangeTracker, the capability is found by
// type assertion, so there is one reader of windows either way.
func walkerOf(store TelemetryStore) windowWalker {
	if w, ok := store.(windowWalker); ok {
		return w
	}
	return copyWalker{store}
}

// copyWalker walks the copies of a store without windowWalker.
type copyWalker struct{ TelemetryStore }

func (c copyWalker) EachRecentByDevice(device string, n int, fn func(*replaydb.AccessRecord)) {
	eachOf(c.RecentByDevice(device, n), fn)
}

func (c copyWalker) EachRecentByFile(fileID int64, n int, fn func(*replaydb.AccessRecord)) {
	eachOf(c.RecentByFile(fileID, n), fn)
}

func eachOf(recs []replaydb.AccessRecord, fn func(*replaydb.AccessRecord)) {
	for i := range recs {
		fn(&recs[i])
	}
}

// appendFeatures appends the paper's six-feature vector of one stored
// access to dst: rb, wb, ots (fractional seconds), cts, fid, fsid.
//
// The volume features enter in log scale (log1p bytes): file sizes are
// log-uniform over three decades, so a linear min-max normalization would
// compress the throughput-deciding distinctions among small transfers
// into a sliver near zero that gradient descent cannot resolve.
func appendFeatures(dst []float64, rec *replaydb.AccessRecord, fsid float64) []float64 {
	return append(dst,
		logBytes(float64(rec.BytesRead)),
		logBytes(float64(rec.BytesWritten)),
		float64(rec.OpenTS)+float64(rec.OpenTMS)/1000,
		float64(rec.CloseTS)+float64(rec.CloseTMS)/1000,
		float64(rec.FileID),
		fsid)
}

// fsidFeature is the fsid feature of the named device: its index in
// devIndex, or one past the range for a device devIndex does not list.
func fsidFeature(devIndex map[string]int, device string) float64 {
	if i, ok := devIndex[device]; ok {
		return float64(i)
	}
	return float64(len(devIndex))
}

// trainKey is what TrainingSet orders an access by: its smoothing group
// (dev, the device's position in the walk, and file), its time, and row,
// its row in walk order.
type trainKey struct {
	time float64
	file int64
	dev  int32
	row  int32
}

// byTime orders keys by (time, walk order): the order a stable sort by time
// leaves the walk in. Time is never NaN (replaydb.ErrInvalidRecord), so this
// is a strict order.
func byTime(a, b trainKey) int {
	switch {
	case a.time < b.time:
		return -1
	case a.time > b.time:
		return 1
	}
	return cmp.Compare(a.row, b.row)
}

// TrainingSet builds the raw (un-normalized) training set of the window
// most recent accesses of each of devices, in one pass over store: row i
// of x is access i's appendFeatures vector, with the device's fsidFeature
// over devIndex, and targets[i] its target(rec) value; rows are in time
// order and smoothed per (device, file) under smooth (see smoothGroups).
// The engine's fit and the experiment harness's per-mount datasets share
// it.
//
// x and targets are allocated once, with room for len(devices) × window
// rows — the number a warmed-up store fills — and are the only
// window-sized values that outlive the call. The records are read in place
// where the store can walk its windows, and ordered through 24-byte keys:
// no record is copied, and no row is moved but once, into its place.
func TrainingSet(store TelemetryStore, devices []string, devIndex map[string]int, window int, target func(*replaydb.AccessRecord) float64, smooth int) (*mat.Matrix, []float64) {
	size := len(devices) * max(window, 0)
	// One value for the walk's callback to capture: the set so far, and the
	// device being walked.
	var set struct {
		data, targets []float64
		keys          []trainKey
		dev           int32
		fsid          float64
	}
	set.data = make([]float64, 0, size*featureCount)
	set.targets = make([]float64, 0, size)
	set.keys = make([]trainKey, 0, size)
	add := func(rec *replaydb.AccessRecord) {
		set.keys = append(set.keys, trainKey{time: rec.Time, file: rec.FileID, dev: set.dev, row: int32(len(set.keys))})
		set.data = appendFeatures(set.data, rec, set.fsid)
		set.targets = append(set.targets, target(rec))
	}
	walk := walkerOf(store)
	for k, name := range devices {
		set.dev, set.fsid = int32(k), fsidFeature(devIndex, name)
		walk.EachRecentByDevice(name, window, add)
	}
	x := &mat.Matrix{Rows: len(set.targets), Cols: featureCount, Data: set.data}
	if smooth > 1 || smooth < 0 {
		smoothGroups(x, set.targets, set.keys, smooth)
	}
	timeOrder(x, set.targets, set.keys)
	return x, set.targets
}

// smoothGroups applies the smoothing to the targets and the rb/wb feature
// columns (x columns 0 and 1) within each (device, file) group of the
// window, in time order — "the data is batched by data ID" (§V-E).
// Averaging across different files or devices would blur exactly the
// per-file, per-location throughput differences the model exists to learn
// (a 583 KB ROOT file and a 1.1 GB one see ~30× different throughput on the
// same mount through latency amortization), and smoothing only the targets
// would decouple them from their features. smooth > 1 selects the trailing
// moving average over that many accesses, through features.MovingAverage's
// own sequence of adds, subtracts and divides, so every value is bit for
// bit its; smooth < 0 the cumulative average, the running mean the paper
// rejects because it washes out the short-term drops that signal trouble
// (kept for the smoothing ablation). Groups are found by sorting keys and
// smoothed in place: the only scratch is the moving average's last smooth
// inputs of the three series.
func smoothGroups(x *mat.Matrix, targets []float64, keys []trainKey, smooth int) {
	slices.SortFunc(keys, func(a, b trainKey) int {
		if c := cmp.Compare(a.dev, b.dev); c != 0 {
			return c
		}
		if c := cmp.Compare(a.file, b.file); c != 0 {
			return c
		}
		return byTime(a, b)
	})
	var last []float64 // series s's input i sits at last[s*smooth+i%smooth]
	if smooth > 1 {
		last = make([]float64, 3*smooth)
	}
	for lo := 0; lo < len(keys); {
		hi := lo + 1
		for hi < len(keys) && keys[hi].dev == keys[lo].dev && keys[hi].file == keys[lo].file {
			hi++
		}
		var sum [3]float64
		for i, k := range keys[lo:hi] {
			row := x.Row(int(k.row))
			for s, p := range [3]*float64{&targets[k.row], &row[0], &row[1]} {
				v := *p
				sum[s] += v
				if smooth < 0 {
					*p = sum[s] / float64(i+1)
					continue
				}
				slot := &last[s*smooth+i%smooth]
				if i >= smooth {
					sum[s] -= *slot
				}
				*slot = v
				*p = sum[s] / float64(min(i+1, smooth))
			}
		}
		lo = hi
	}
}

// timeOrder puts the rows of x and targets, which are in walk order, in
// byTime order, moving each row once by following the permutation's cycles.
func timeOrder(x *mat.Matrix, targets []float64, keys []trainKey) {
	slices.SortFunc(keys, byTime)
	// Position p takes walk row keys[p].row; a filled position is marked −1.
	for p := range keys {
		if keys[p].row < 0 {
			continue
		}
		var held [featureCount]float64
		copy(held[:], x.Row(p))
		heldTarget := targets[p]
		for j := p; ; {
			src := int(keys[j].row)
			keys[j].row = -1
			if src == p {
				copy(x.Row(j), held[:])
				targets[j] = heldTarget
				break
			}
			copy(x.Row(j), x.Row(src))
			targets[j] = targets[src]
			j = src
		}
	}
}
