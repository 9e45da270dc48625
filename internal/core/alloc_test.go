package core

import (
	"context"
	"runtime"
	"testing"

	"geomancy/internal/replaydb"
)

// decisionAllocs returns what one steady-state decision of a 32-device ×
// 256-file engine allocates, in bytes and in objects: the least of three
// decisions each (the runtime's own allocations land in the same
// counters), after two that size the reusable buffers. Before every
// decision a quarter of the files see fresh telemetry, which is all a
// pruned pass (topK > 0) refetches features for; topK = 0 makes every
// decision a full pass.
func decisionAllocs(t *testing.T, topK int) (bytes, objects int64) {
	t.Helper()
	const nFiles, nDev = 256, 32
	cfg := Config{Epochs: 2, WindowX: 100, Seed: 31, Epsilon: 0.05,
		TopK: topK, FullRescanEvery: 1 << 20}
	s, files := shardedWarehouse(t, nFiles, nDev, 1, cfg)
	e, db := s.global.Engine, s.global.Engine.db.(*replaydb.DB)
	now := nFiles
	decide := func() (int64, int64) {
		for i := 0; i < nFiles; i += 4 {
			now++
			if _, err := db.AppendAccess(replaydb.AccessRecord{
				Time: float64(now), FileID: files[(i+now)%nFiles].ID, Device: files[i].Device,
				BytesRead: 2e8, OpenTS: int64(now), CloseTS: int64(now + 1), Throughput: 2e9,
			}); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, _, err := e.ProposeLayoutContext(context.Background(), files); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc - before.TotalAlloc), int64(after.Mallocs - before.Mallocs)
	}
	decide()
	decide()
	bytes, objects = -1, -1
	for i := 0; i < 3; i++ {
		b, o := decide()
		if bytes < 0 || b < bytes {
			bytes = b
		}
		if objects < 0 || o < objects {
			objects = o
		}
	}
	return bytes, objects
}

// A decision allocates per file, never per (file, device) pairing: the
// device lists and scores live in the scoring pool and candidate rows are
// written straight into the inference buffer, so what is left is a file's
// feature entry and history walk when its features are (re)fetched, and
// the per-decision task list, layout map and record slice. Each ceiling is
// the reading on Go 1.24 plus 10%, so a name-keyed score map, a candidate
// list, a boxed feature row or even one more object a file fails here, on
// any machine, long before a benchmark row would show it.
func TestDecisionAllocations(t *testing.T) {
	const nFiles = 256
	for _, tc := range []struct {
		name           string
		topK           int
		objects, bytes int64 // the reading on Go 1.24
	}{
		// Every file: a fresh feature entry and its history walk.
		{name: "full pass", topK: 0, objects: 525, bytes: 60736},
		// A quarter of the files: the history walk.
		{name: "pruned pass", topK: 2, objects: 156, bytes: 52632},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bytes, objects := decisionAllocs(t, tc.topK)
			maxObjects, maxBytes := tc.objects+tc.objects/10, tc.bytes+tc.bytes/10
			t.Logf("%d B in %d objects (%.1f per file); ceilings %d B, %d objects", bytes, objects, float64(objects)/nFiles, maxBytes, maxObjects)
			if objects > maxObjects {
				t.Errorf("one decision allocates %d objects, want at most %d (%d + 10%%)", objects, maxObjects, tc.objects)
			}
			if bytes > maxBytes {
				t.Errorf("one decision allocates %d B, want at most %d (%d + 10%%)", bytes, maxBytes, tc.bytes)
			}
		})
	}
}
