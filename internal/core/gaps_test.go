package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"geomancy/internal/replaydb"
	"geomancy/internal/storagesim"
	"geomancy/internal/trace"
	"geomancy/internal/workload"
)

func TestGapPredictorLearnsRegularGaps(t *testing.T) {
	g := NewGapPredictor()
	for i := 0; i < 20; i++ {
		g.Observe(1, float64(i)*10) // perfectly regular 10s gaps
	}
	mean, dev, ok := g.PredictGap(1)
	if !ok {
		t.Fatal("no prediction after 20 observations")
	}
	if math.Abs(mean-10) > 0.5 {
		t.Errorf("mean gap = %v, want ~10", mean)
	}
	if dev > 3 {
		t.Errorf("dev = %v, want small for regular gaps", dev)
	}
	last, ok := g.LastAccess(1)
	if !ok || last != 190 {
		t.Errorf("last access = %v, want 190", last)
	}
}

func TestGapPredictorUnknownFile(t *testing.T) {
	g := NewGapPredictor()
	if _, _, ok := g.PredictGap(42); ok {
		t.Error("unknown file should not predict")
	}
	if _, ok := g.LastAccess(42); ok {
		t.Error("unknown file should have no last access")
	}
	// One observation: still no gap (need two accesses for one gap).
	g.Observe(1, 5)
	if _, _, ok := g.PredictGap(1); ok {
		t.Error("single observation has no gap yet")
	}
}

func TestGapPredictorAdaptsToChange(t *testing.T) {
	g := NewGapPredictor()
	for i := 0; i < 30; i++ {
		g.Observe(1, float64(i)) // 1s gaps
	}
	// Gaps widen 100×.
	for i := 0; i < 30; i++ {
		g.Observe(1, 30+float64(i)*100)
	}
	mean, _, _ := g.PredictGap(1)
	if mean < 50 {
		t.Errorf("mean gap = %v, should have adapted toward 100", mean)
	}
}

func TestGapPredictorNonMonotoneTime(t *testing.T) {
	g := NewGapPredictor()
	g.Observe(1, 10)
	g.Observe(1, 5) // clock skew: treat as zero gap, don't go negative
	mean, _, ok := g.PredictGap(1)
	if !ok || mean < 0 {
		t.Errorf("mean = %v after skew, want ≥ 0", mean)
	}
}

// gapCluster is a two-device cluster, "src" reading at 2 GB/s and "dst"
// writing at 1 GB/s, holding a 1 GB file on "src" for every id.
func gapCluster(t *testing.T, ids ...int64) *storagesim.Cluster {
	t.Helper()
	var profiles []storagesim.DeviceProfile
	for _, name := range []string{"src", "dst"} {
		profiles = append(profiles, storagesim.DeviceProfile{Name: name, ReadBW: 2e9, WriteBW: 1e9, Capacity: 1e12})
	}
	c, err := storagesim.NewCluster(profiles, storagesim.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if err := c.PlaceFile(id, fmt.Sprintf("/f%d", id), 1e9, "src"); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestMoveSchedulerFilter(t *testing.T) {
	g := NewGapPredictor()
	// File 1: long 100s gaps. File 2: hot, 0.1s gaps. File 3: no history.
	for i := 0; i < 10; i++ {
		g.Observe(1, float64(i)*100)
		g.Observe(2, float64(i)*0.1)
	}
	cluster := gapCluster(t, 1, 2, 3, 4)
	layout := map[int64]string{1: "dst", 2: "dst", 3: "dst", 4: "src"}
	estimate := func(fileID int64, dst string) float64 { return 10 } // 10s move

	approved, deferred := g.Filter(layout, cluster, estimate)

	if approved[1] != "dst" {
		t.Error("file 1 (idle 100s, move 10s) should be approved")
	}
	if _, ok := approved[2]; ok {
		t.Error("file 2 (hot) should be deferred")
	}
	if approved[3] != "dst" {
		t.Error("file 3 (no history) should be allowed")
	}
	if approved[4] != "src" {
		t.Error("file 4 (no move) should pass through")
	}
	if len(deferred) != 1 || deferred[0].FileID != 2 {
		t.Fatalf("deferred = %+v", deferred)
	}
	if !deferred[0].Hot {
		t.Error("file 2 should be flagged hot (never idle long enough)")
	}
}

// The scheduler admits a move only when its idle window covers 1.5× the
// transfer: just under that a move passes, just over it is postponed.
func TestMoveSchedulerHeadroom(t *testing.T) {
	g := NewGapPredictor()
	for i := 0; i < 10; i++ {
		g.Observe(1, float64(i)*12) // 12s gaps, low dev
	}
	mean, dev, _ := g.PredictGap(1)
	window := mean - dev
	cluster := gapCluster(t, 1)
	layout := map[int64]string{1: "dst"}
	filter := func(move float64) (map[int64]string, []Deferral) {
		return g.Filter(layout, cluster, func(int64, string) float64 { return move })
	}
	if approved, deferred := filter(window / 1.5 * 0.99); len(deferred) != 0 || approved[1] != "dst" {
		t.Errorf("1.5 × move just inside the %vs window: approved=%v deferred=%+v", window, approved, deferred)
	}
	_, deferred := filter(window / 1.5 * 1.01)
	if len(deferred) != 1 {
		t.Fatalf("1.5 × move just past the %vs window: deferred = %+v, want the move postponed", window, deferred)
	}
	if deferred[0].Hot {
		t.Error("a merely tight window is not 'hot'")
	}
}

func TestClusterMoveEstimator(t *testing.T) {
	est := ClusterMoveEstimator(gapCluster(t, 1))
	// 1 GB over min(2 GB/s read at src, 1 GB/s write at dst) → 1 s.
	if got := est(1, "dst"); math.Abs(got-1) > 1e-9 {
		t.Errorf("estimate = %v, want 1", got)
	}
	if got := est(1, "unknown"); !math.IsInf(got, 1) {
		t.Errorf("unknown destination estimate = %v, want +Inf", got)
	}
	if got := est(99, "dst"); !math.IsInf(got, 1) {
		t.Errorf("unknown file estimate = %v, want +Inf", got)
	}
}

func TestLoopWithGapScheduling(t *testing.T) {
	cluster := storagesim.NewBluesky(21)
	files := trace.BelleFileSet(21)
	runner := workload.NewRunner(cluster, files, 1, 21)
	if err := runner.SpreadEvenly(cluster.DeviceNames()); err != nil {
		t.Fatal(err)
	}
	db, _ := replaydb.Open(replaydb.Options{})
	defer db.Close()

	loop, err := NewNamedLoop(db, db, cluster, runner, "geomancy", Config{Epochs: 5, WindowX: 400, CooldownRuns: 2, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	gaps := loop.EnableGapScheduling()
	for i := 0; i < 4; i++ {
		if _, err := loop.RunOnceContext(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	// The predictor saw every file.
	if got := len(gaps.stats); got != len(files) {
		t.Errorf("gap model tracked %d files, want %d", got, len(files))
	}
	// Deferral bookkeeping is consistent: the BELLE II pattern accesses
	// each file in a tight burst then leaves it idle for a long stretch,
	// so most moves are approvable; whatever was deferred is recorded.
	for _, d := range loop.Deferrals() {
		if d.FileID == 0 || d.Dst == "" {
			t.Errorf("malformed deferral %+v", d)
		}
	}
	if len(loop.Movements()) == 0 {
		t.Error("gap scheduling blocked every movement")
	}
}

func TestGapPredictorBurstyReleaseGaps(t *testing.T) {
	g := NewGapPredictor()
	// Bursts of 15 accesses 0.5s apart, then 600s idle — the BELLE II
	// shape. The usable window is the 600s release gap.
	tm := 0.0
	for burst := 0; burst < 6; burst++ {
		for i := 0; i < 15; i++ {
			g.Observe(1, tm)
			tm += 0.5
		}
		tm += 600
	}
	mean, dev, ok := g.PredictGap(1)
	if !ok {
		t.Fatal("no prediction")
	}
	if mean < 300 {
		t.Errorf("release-gap mean = %v, want ~600 (not the 0.5s cadence)", mean)
	}
	cad, _, ok := g.Cadence(1)
	if !ok || cad > 5 {
		t.Errorf("cadence = %v, want ~0.5", cad)
	}
	// A 60s move (×1.5 headroom = 90s) fits in the 600s release window.
	approved, deferred := g.Filter(map[int64]string{1: "dst"}, gapCluster(t, 1),
		func(int64, string) float64 { return 60 })
	if len(deferred) != 0 || approved[1] != "dst" {
		t.Errorf("bursty file should be movable in its release gap (deferred %+v, mean %v dev %v)", deferred, mean, dev)
	}
}
