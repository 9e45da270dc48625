//go:build !race

// The race runtime allocates for its own bookkeeping, so what a save
// allocates is measured without it.

package geomancy

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestSaveCheckpointAllocationIsFlat pins what one SaveCheckpoint
// allocates on a system shaped like the bench's deployed-ingest workload —
// the online learned policy over model 1, loopback agents, a WAL,
// telemetry — after 60 runs and again after 240. The file grows with the
// run history; what the save allocates does not: the two readings differ
// by less than 4 KB, and each stays within 16 KB of what Go 1.24 reads
// (saveAllocs). A save that builds the file in memory, or copies the
// history, allocates in proportion to the file.
func TestSaveCheckpointAllocationIsFlat(t *testing.T) {
	dir := t.TempDir()
	sys, err := New(
		WithSeed(1), WithScenario("write-ingest"), WithPolicy("online-geomancy"), WithModel(1),
		WithTrainingWindow(600), WithEpochs(4), WithCooldown(3), WithBootstrapRuns(5), WithParallelism(2),
		WithDistributed(), WithReplayDB(filepath.Join(dir, "replay.wal")),
		WithCheckpointDir(filepath.Join(dir, "ckpt")), WithTelemetry(NewMetrics()),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	var allocs [2]uint64
	var sizes [2]int64
	done := 0
	for i, runs := range []int{60, 240} {
		if _, err := sys.RunN(runs - done); err != nil {
			t.Fatal(err)
		}
		done = runs
		allocs[i], sizes[i] = leastSaveAlloc(t, sys)
		t.Logf("after %d runs one save allocates %d bytes for a %d-byte file", runs, allocs[i], sizes[i])
		if limit := saveAllocs[i] + 16<<10; allocs[i] > limit {
			t.Errorf("after %d runs one SaveCheckpoint allocates %d bytes; the limit is %d", runs, allocs[i], limit)
		}
	}
	if sizes[1] <= sizes[0] {
		t.Fatalf("the checkpoint did not grow from 60 runs (%d bytes) to 240 (%d)", sizes[0], sizes[1])
	}
	if d := int64(allocs[1]) - int64(allocs[0]); d <= -4<<10 || d >= 4<<10 {
		t.Errorf("one save allocates %d bytes after 60 runs and %d after 240: %+d for a file %d bytes longer",
			allocs[0], allocs[1], d, sizes[1]-sizes[0])
	}
}

// saveAllocs is what one save allocates after 60 and after 240 runs on Go
// 1.24.
var saveAllocs = [2]uint64{37688, 38040}

// leastSaveAlloc returns the least one of three SaveCheckpoint calls
// allocates, and the size of the file it wrote. A first, unmeasured save
// compiles gob's encoders for the head's types, once a process.
func leastSaveAlloc(t *testing.T, sys *System) (least uint64, size int64) {
	t.Helper()
	if _, err := sys.SaveCheckpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		path, err := sys.SaveCheckpoint()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; i == 0 || grew < least {
			least, size = grew, info.Size()
		}
	}
	return least, size
}
