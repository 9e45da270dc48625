package replaydb

import (
	"math"
	"sort"
)

// DeviceSummary aggregates one device's telemetry.
type DeviceSummary struct {
	Device   string
	Accesses int
	// MeanThroughput and StdThroughput are in bytes/second.
	MeanThroughput, StdThroughput float64
	// Bytes is the total volume observed (reads + writes).
	Bytes int64
	// FirstTime and LastTime bound the device's observation window.
	FirstTime, LastTime float64
}

// Summary computes per-device aggregates over all stored accesses,
// ordered by device name — the data behind Table IV's throughput column
// and cmd/replaydb's stats view. It needs every record, so it panics under
// a horizon.
func (db *DB) Summary() []DeviceSummary {
	db.mu.RLock()
	defer db.mu.RUnlock()
	db.mustKeepAll("Summary")
	out := make([]DeviceSummary, 0, len(db.byDevice))
	for dev, st := range db.byDevice {
		n := len(st.pos) // a stream exists from its first record on, so n ≥ 1
		s := DeviceSummary{Device: dev, Accesses: n, FirstTime: math.Inf(1), LastTime: math.Inf(-1)}
		var sum, sq float64
		db.each(st, n, func(rec *AccessRecord) {
			sum += rec.Throughput
			s.Bytes += rec.BytesRead + rec.BytesWritten
			s.FirstTime = min(s.FirstTime, rec.Time)
			s.LastTime = max(s.LastTime, rec.Time)
		})
		mean := sum / float64(n)
		db.each(st, n, func(rec *AccessRecord) {
			d := rec.Throughput - mean
			sq += d * d
		})
		s.MeanThroughput = mean
		s.StdThroughput = math.Sqrt(sq / float64(n))
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Device < out[j].Device })
	return out
}
