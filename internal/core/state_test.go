package core

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"

	"geomancy/internal/replaydb"
	"geomancy/internal/storagesim"
	"geomancy/internal/trace"
	"geomancy/internal/workload"
)

// A loop snapshot no run could have written is refused with
// ErrInvalidState before the loop changes: one row per malformed field,
// each applied to a valid snapshot with gap estimates of three files.
func TestLoopRestoreRefusesMalformedState(t *testing.T) {
	cluster := storagesim.NewBluesky(3)
	runner := workload.NewRunner(cluster, trace.BelleFileSet(3), 1, 3)
	db, err := replaydb.Open(replaydb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	loop, err := NewNamedLoop(db, db, cluster, runner, "lru", Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	gaps := loop.EnableGapScheduling()
	for i := 0; i < 6; i++ {
		for id := int64(1); id <= 3; id++ {
			gaps.Observe(id, float64(i*10)+float64(id))
		}
	}
	loop.accessCount, loop.lastRun = 18, 2
	valid := loop.State()
	if err := valid.Check(); err != nil {
		t.Fatalf("a captured snapshot fails its check: %v", err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name    string
		corrupt func(st *LoopState, f []GapFileState)
	}{
		{"negative access count", func(st *LoopState, _ []GapFileState) { st.AccessCount = -1 }},
		{"last run below -1", func(st *LoopState, _ []GapFileState) { st.LastRun = -2 }},
		{"NaN last access", func(_ *LoopState, f []GapFileState) { f[1].LastAccess = nan }},
		{"negative last access", func(_ *LoopState, f []GapFileState) { f[1].LastAccess = -1 }},
		{"NaN mean", func(_ *LoopState, f []GapFileState) { f[0].Mean = nan }},
		{"infinite mean", func(_ *LoopState, f []GapFileState) { f[0].Mean = inf }},
		{"negative mean", func(_ *LoopState, f []GapFileState) { f[0].Mean = -5 }},
		{"infinite dev", func(_ *LoopState, f []GapFileState) { f[2].Dev = -inf }},
		{"negative dev", func(_ *LoopState, f []GapFileState) { f[2].Dev = -0.5 }},
		{"NaN release mean", func(_ *LoopState, f []GapFileState) { f[1].ReleaseMean = nan }},
		{"negative release mean", func(_ *LoopState, f []GapFileState) { f[1].ReleaseMean = -1 }},
		{"infinite release dev", func(_ *LoopState, f []GapFileState) { f[0].ReleaseDev = inf }},
		{"negative gap count", func(_ *LoopState, f []GapFileState) { f[2].N = -1 }},
		{"negative release count", func(_ *LoopState, f []GapFileState) { f[2].Releases = -3 }},
		{"file listed twice", func(_ *LoopState, f []GapFileState) { f[1].FileID = f[0].FileID }},
		{"files out of order", func(_ *LoopState, f []GapFileState) { f[0], f[2] = f[2], f[0] }},
	} {
		t.Run(c.name, func(t *testing.T) {
			st := valid
			g := GapPredictorState{Files: slices.Clone(valid.Gaps.Files)}
			st.Gaps = &g
			c.corrupt(&st, g.Files)
			before := loop.State()
			if err := loop.RestoreState(st); !errors.Is(err, ErrInvalidState) {
				t.Fatalf("RestoreState = %v, want ErrInvalidState", err)
			}
			if after := loop.State(); !reflect.DeepEqual(after, before) {
				t.Errorf("a refused restore changed the loop: %+v, was %+v", after, before)
			}
		})
	}
	if err := loop.RestoreState(valid); err != nil {
		t.Fatalf("the valid snapshot is refused: %v", err)
	}
}
