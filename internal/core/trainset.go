package core

import (
	"math/bits"

	"geomancy/internal/mat"
	"geomancy/internal/replaydb"
)

// windowWalker is the in-place read of a TelemetryStore's recent windows.
// *replaydb.DB provides it, and agents.RemoteStore over its reply buffer:
// each EachRecent… call hands the window's records, oldest first, to fn
// under the store's lock (the database's read lock, the wire session's
// lock), copying nothing, so fn must not call back into the store nor keep
// the pointer it is given.
type windowWalker interface {
	EachRecentByDevice(device string, n int, fn func(*replaydb.AccessRecord))
	EachRecentByFile(fileID int64, n int, fn func(*replaydb.AccessRecord))
}

// walkerOf returns store's own walker or, for a store that answers only
// with copies (a decorator that forwards just TelemetryStore's methods),
// one that hands the records of each copy to the same callback. Like a
// ChangeTracker, the capability is found by type assertion, so there is
// one reader of windows either way.
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

// trainKey is what TrainingSet orders an access by — its time, and its file
// within its device's window — and the two rows the ordering finds for it:
// next, the following row of its (device, file) smoothing group in time
// order (−1 after the group's last), and from, the walk row that takes its
// row's place in time order.
type trainKey struct {
	time float64
	file int64
	next int32
	from int32
}

// TrainingSet builds the raw (un-normalized) training set of the window
// most recent accesses of each of devices, in one pass over store: row i
// of x is access i's appendFeatures vector, with the device's fsidFeature
// over devIndex, and targets[i] its target(rec) value; rows are in time
// order, ties in walk order, and smoothed per (device, file) under smooth
// (see smoothGroups). The engine's fit and the experiment harness's
// per-mount datasets share it.
//
// x and targets are allocated once, with room for len(devices) × window
// rows — the number a warmed-up store fills — and are the only
// window-sized values that outlive the call. The records are read in place
// where the store can walk its windows, and ordered through 24-byte keys
// by merging the runs the walk yields already in time order (a window is
// walked oldest first): no record is copied, nothing is sorted, and no row
// is moved but once, into its place.
func TrainingSet(store TelemetryStore, devices []string, devIndex map[string]int, window int, target func(*replaydb.AccessRecord) float64, smooth int) (*mat.Matrix, []float64) {
	size := len(devices) * max(window, 0)
	// One value for the walk's callback to capture: the set so far, where
	// the walked device's rows start, and the runs of the walk so far.
	var set struct {
		data, targets []float64
		keys          []trainKey
		first, runs   int
		fsid          float64
	}
	set.data = make([]float64, 0, size*featureCount)
	set.targets = make([]float64, 0, size)
	set.keys = make([]trainKey, 0, size)
	add := func(rec *replaydb.AccessRecord) {
		if n := len(set.keys); n == set.first || rec.Time < set.keys[n-1].time {
			set.runs++
		}
		set.keys = append(set.keys, trainKey{time: rec.Time, file: rec.FileID})
		set.data = appendFeatures(set.data, rec, set.fsid)
		set.targets = append(set.targets, target(rec))
	}
	ends := make([]int32, len(devices)) // device k's rows end at row ends[k]
	walk := walkerOf(store)
	for k, name := range devices {
		set.first, set.fsid = len(set.keys), fsidFeature(devIndex, name)
		walk.EachRecentByDevice(name, window, add)
		ends[k] = int32(len(set.keys))
	}
	x := &mat.Matrix{Rows: len(set.targets), Cols: featureCount, Data: set.data}
	// A merge, of one device's rows or of the whole walk, finds at most the
	// runs the walk counted device by device.
	m := runMerge{keys: set.keys, runs: make([]runCursor, 0, set.runs)}
	if smooth > 1 || smooth < 0 {
		smoothGroups(x, set.targets, &m, ends, smooth)
	}
	timeOrder(x, set.targets, &m)
	return x, set.targets
}

// runMerge merges the runs of a stretch of keys — its maximal stretches of
// rows whose times do not descend — from their ends: pop hands the rows out
// latest first, by time and, among equal times, by row, which reversed is
// the order a stable sort by time leaves the walk in. Time is never NaN
// (replaydb.ErrInvalidRecord), so this is a strict order, and −0 ties +0 in
// it as in the sort. A pop costs O(log runs); a window walked in time order
// is one run.
type runMerge struct {
	keys []trainKey
	runs []runCursor // a binary heap, latest row on top
}

// runCursor is a run's rows not yet popped, lo through pos, and pos's time.
type runCursor struct {
	time    float64
	pos, lo int32
}

// load starts a merge of rows lo through hi−1.
func (m *runMerge) load(lo, hi int32) {
	m.runs = m.runs[:0]
	for start := lo; start < hi; {
		end := start + 1
		for end < hi && m.keys[end].time >= m.keys[end-1].time {
			end++
		}
		m.runs = append(m.runs, runCursor{time: m.keys[end-1].time, pos: end - 1, lo: start})
		start = end
	}
	for i := len(m.runs)/2 - 1; i >= 0; i-- {
		m.down(i)
	}
}

// after reports whether run c's latest row comes after run d's.
func (c *runCursor) after(d *runCursor) bool {
	return c.time > d.time || c.time == d.time && c.pos > d.pos
}

// down restores the heap below run i.
func (m *runMerge) down(i int) {
	h, run := m.runs, m.runs[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].after(&h[c]) {
			c++
		}
		if !h[c].after(&run) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = run
}

// pop returns the latest row not yet popped, or −1 once every row is.
func (m *runMerge) pop() int32 {
	if len(m.runs) == 0 {
		return -1
	}
	top := &m.runs[0]
	row := top.pos
	if row == top.lo {
		last := len(m.runs) - 1
		m.runs[0] = m.runs[last]
		m.runs = m.runs[:last]
	} else {
		top.pos--
		top.time = m.keys[top.pos].time
	}
	if len(m.runs) > 0 {
		m.down(0)
	}
	return row
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
// (kept for the smoothing ablation).
//
// Groups are found device by device (ends[k] is where device k's rows
// end): a merge of the device's runs hands its rows out latest first, and
// each row links to the one its file handed out before it, the next of its
// group, through one open-addressed file → row table. The table is at
// most half full, sized for the widest device's window and reused for
// every device; when a device's merge is done it holds the first row of
// each of the device's groups, and each group is smoothed along its links
// in place: the only other scratch is the moving average's last smooth
// inputs of the three series.
func smoothGroups(x *mat.Matrix, targets []float64, m *runMerge, ends []int32, smooth int) {
	keys := m.keys
	widest, lo := int32(0), int32(0)
	for _, hi := range ends {
		widest, lo = max(widest, hi-lo), hi
	}
	if widest == 0 {
		return
	}
	// A slot holds 1 + the row its file was last handed, 0 if it is free.
	slots := make([]int32, 1<<bits.Len(uint(2*widest-1)))
	var last []float64 // series s's input i sits at last[s*smooth+i%smooth]
	if smooth > 1 {
		last = make([]float64, 3*smooth)
	}
	lo = 0
	for _, hi := range ends {
		if hi == lo {
			continue
		}
		width := bits.Len(uint(2*(hi-lo) - 1))
		table := slots[:1<<width]
		m.load(lo, hi)
		for row := m.pop(); row >= 0; row = m.pop() {
			file := keys[row].file
			i := int(uint64(file) * 0x9E3779B97F4A7C15 >> (64 - width)) // Fibonacci hashing
			for table[i] != 0 && keys[table[i]-1].file != file {
				i = (i + 1) & (len(table) - 1)
			}
			keys[row].next = table[i] - 1
			table[i] = row + 1
		}
		for i, first := range table {
			if first != 0 {
				table[i] = 0
				smoothGroup(x, targets, keys, first-1, last, smooth)
			}
		}
		lo = hi
	}
}

// smoothGroup smooths one (device, file) group, from its first row along
// the keys' next links.
func smoothGroup(x *mat.Matrix, targets []float64, keys []trainKey, first int32, last []float64, smooth int) {
	var sum [3]float64
	for i, r := 0, first; r >= 0; i, r = i+1, keys[r].next {
		row := x.Row(int(r))
		n, slot := float64(i+1), 0
		if smooth > 0 {
			n, slot = float64(min(i+1, smooth)), i%smooth
		}
		for s, p := range [3]*float64{&targets[r], &row[0], &row[1]} {
			v := *p
			sum[s] += v
			if smooth > 0 {
				in := &last[s*smooth+slot]
				if i >= smooth {
					sum[s] -= *in
				}
				*in = v
			}
			*p = sum[s] / n
		}
	}
}

// timeOrder puts the rows of x and targets, which are in walk order, in
// time order: a merge of the whole walk's runs finds the walk row each
// place takes, and each row then moves once, into its place, by following
// the permutation's cycles.
func timeOrder(x *mat.Matrix, targets []float64, m *runMerge) {
	keys := m.keys
	m.load(0, int32(len(keys)))
	for p := int32(len(keys)) - 1; p >= 0; p-- {
		keys[p].from = m.pop() // the merge reads times only
	}
	// A filled place is marked −1.
	for p := range keys {
		if keys[p].from < 0 {
			continue
		}
		var held [featureCount]float64
		copy(held[:], x.Row(p))
		heldTarget := targets[p]
		for j := p; ; {
			src := int(keys[j].from)
			keys[j].from = -1
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
