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
		positions := st.pos
		s := DeviceSummary{Device: dev, Accesses: len(positions)}
		if len(positions) == 0 {
			out = append(out, s)
			continue
		}
		var sum, sq float64
		s.FirstTime = math.Inf(1)
		s.LastTime = math.Inf(-1)
		for _, p := range positions {
			rec := db.accesses.at(p)
			sum += rec.Throughput
			s.Bytes += rec.BytesRead + rec.BytesWritten
			if rec.Time < s.FirstTime {
				s.FirstTime = rec.Time
			}
			if rec.Time > s.LastTime {
				s.LastTime = rec.Time
			}
		}
		mean := sum / float64(len(positions))
		for _, p := range positions {
			d := db.accesses.at(p).Throughput - mean
			sq += d * d
		}
		s.MeanThroughput = mean
		s.StdThroughput = math.Sqrt(sq / float64(len(positions)))
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Device < out[j].Device })
	return out
}
