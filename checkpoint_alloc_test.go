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

// TestSaveCheckpointAllocatesItsSize pins what one SaveCheckpoint allocates
// on a system shaped like the bench's deployed-ingest workload — the
// online learned policy over model 1, loopback agents, a WAL, telemetry —
// after 60 runs: at most 1.5 times the bytes it writes, plus 16 KB for the
// head section's gob machinery and the file's own bookkeeping. A save that
// encodes a value twice, or grows its buffer by doubling, allocates
// several times the file.
func TestSaveCheckpointAllocatesItsSize(t *testing.T) {
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
	if _, err := sys.RunN(60); err != nil {
		t.Fatal(err)
	}
	// The first save compiles gob's encoders for the head's types, once
	// a process.
	if _, err := sys.SaveCheckpoint(); err != nil {
		t.Fatal(err)
	}
	var least uint64
	var size int64
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
	t.Logf("one save allocates %d bytes for a %d-byte file", least, size)
	if limit := uint64(size)*3/2 + 16<<10; least > limit {
		t.Errorf("one SaveCheckpoint allocates %d bytes for a %d-byte file; the limit is %d", least, size, limit)
	}
}
