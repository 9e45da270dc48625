package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"reflect"
	"slices"
	"testing"

	"geomancy/internal/features"
	"geomancy/internal/nn"
	"geomancy/internal/policy"
	"geomancy/internal/replaydb"
	"geomancy/internal/storagesim"
)

// blueskySummaries gives the paper cluster's six devices fixed recent
// throughputs, descending in profile order, so shortlist tests are
// deterministic. The top K devices are the first K; with TopK ≥ 6 every
// device is shortlisted.
func blueskySummaries() []storagesim.DeviceSummary {
	return []storagesim.DeviceSummary{
		{Name: "file0", RecentThroughput: 8e9, Available: true},
		{Name: "pic", RecentThroughput: 2e9, Available: true},
		{Name: "people", RecentThroughput: 1.7e9, Available: true},
		{Name: "tmp", RecentThroughput: 1.6e9, Available: true},
		{Name: "var", RecentThroughput: 1.3e9, Available: true},
		{Name: "USBtmp", RecentThroughput: 0.6e9, Available: true},
	}
}

// countingStore wraps the ReplayDB, counting per-file feature fetches —
// the per-decision cost the pruning plane exists to avoid. The embedded
// DB keeps the ChangeTracker and window-walk capabilities visible to the
// engine, so both ways of reading a file's window count: the walk the
// engine takes, and the copy it would take through a store without one.
type countingStore struct {
	*replaydb.DB
	byFileCalls int
}

func (c *countingStore) EachRecentByFile(id int64, n int, fn func(*replaydb.AccessRecord)) {
	c.byFileCalls++
	c.DB.EachRecentByFile(id, n, fn)
}

func (c *countingStore) RecentByFile(id int64, n int) []replaydb.AccessRecord {
	c.byFileCalls++
	return c.DB.RecentByFile(id, n)
}

func testFiles() []policy.FileInfo {
	return []policy.FileInfo{
		{ID: 1, Path: "/a", Size: 1e8, Device: "pic"},
		{ID: 2, Path: "/b", Size: 2e8, Device: "USBtmp"},
		{ID: 3, Path: "/c", Size: 5e7, Device: "file0"},
		{ID: 4, Path: "/d", Size: 3e8, Device: "tmp"},
	}
}

func TestDeviceShortlist(t *testing.T) {
	db := seedDB(t, 100)
	cfg := quickCfg()
	cfg.TopK = 1
	e, err := NewEngine(db, testDevices, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// No summary source: every device.
	if got := e.deviceShortlist(); !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("sourceless shortlist = %v", got)
	}

	sums := blueskySummaries()
	e.SetSummarySource(func() []storagesim.DeviceSummary { return sums })
	// The devices rank together: TopK=1 is the fastest device, TopK=2 the
	// two fastest.
	if got := e.deviceShortlist(); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("top-1 shortlist = %v", got)
	}
	e.cfg.TopK = 2
	if got := e.deviceShortlist(); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("top-2 shortlist = %v", got)
	}
	// TopK=6 covers the full cluster, and a larger K is capped at it.
	for _, k := range []int{6, 9} {
		e.cfg.TopK = k
		if got := e.deviceShortlist(); !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4, 5}) {
			t.Fatalf("top-%d shortlist = %v", k, got)
		}
	}
	// A tie breaks toward profile order: USBtmp (index 5) matches people's
	// throughput, and the third slot goes to people (index 2).
	sums[5].RecentThroughput = sums[2].RecentThroughput
	e.cfg.TopK = 3
	if got := e.deviceShortlist(); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("tied top-3 shortlist = %v", got)
	}
	// Unavailable and read-only devices never shortlist: with file0 down
	// and tmp read-only, the top two are pic and people.
	sums = blueskySummaries()
	sums[0].Available = false
	sums[3].ReadOnly = true
	e.cfg.TopK = 2
	if got := e.deviceShortlist(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("degraded shortlist = %v", got)
	}
}

func TestColdFileSymmetricPrior(t *testing.T) {
	db := seedDB(t, 1200)
	e, err := NewEngine(db, testDevices, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// A file with no telemetry history gets the symmetric prior: half its
	// size split evenly across read and write volume.
	ff := e.gatherFileFeatures(policy.FileInfo{ID: 999, Size: 1000})
	if ff.rb != 250 || ff.wb != 250 || ff.ts != 0 {
		t.Fatalf("cold prior = %+v, want rb=wb=250 ts=0", ff)
	}
	// The prior reaches the batched pipeline and the single-candidate
	// oracle identically.
	if _, err := e.TrainContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	cold := []policy.FileInfo{{ID: 999, Path: "/new", Size: 5e8, Device: "pic"}}
	_, _, scores, err := e.proposeScored(context.Background(), cold)
	if err != nil {
		t.Fatal(err)
	}
	for _, dev := range testDevices {
		got, ok := scores[0][dev]
		if want := e.predictCandidate(cold[0], dev); !ok || got != want {
			t.Fatalf("cold file on %s: predictCandidate %v != batched %v", dev, want, got)
		}
	}
}

// TestPrunedMatchesExhaustive is the layout-agreement contract at engine
// level: with a shortlist covering every device (TopK=6 on the six-device
// Bluesky cluster), a pruned engine and an exhaustive engine of the same
// seed propose identical layouts decision after decision — through clean
// and dirty files, decisions with and without a fit before them, and
// exploration draws.
func TestPrunedMatchesExhaustive(t *testing.T) {
	mk := func(topK int) (*Engine, *replaydb.DB) {
		db := seedDB(t, 1200)
		cfg := quickCfg()
		cfg.Epsilon = 0.3 // plenty of exploration: the RNG streams must stay aligned
		cfg.TopK = topK
		cfg.FullRescanEvery = 4
		e, err := NewEngine(db, testDevices, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.SetSummarySource(func() []storagesim.DeviceSummary { return blueskySummaries() })
		if _, err := e.TrainContext(context.Background()); err != nil {
			t.Fatal(err)
		}
		return e, db
	}
	ex, exDB := mk(0)
	pr, prDB := mk(len(testDevices))

	files := testFiles()
	dirty := func(db *replaydb.DB, id int64) {
		if _, err := db.AppendAccess(replaydb.AccessRecord{
			Time: 2000, FileID: id, Device: "pic", BytesRead: 2e8,
			OpenTS: 2000, CloseTS: 2001, Throughput: 1.5e9,
		}); err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; step < 10; step++ {
		exLayout, exDec, err := ex.ProposeLayoutContext(context.Background(), files)
		if err != nil {
			t.Fatal(err)
		}
		prLayout, prDec, err := pr.ProposeLayoutContext(context.Background(), files)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(exLayout, prLayout) {
			t.Fatalf("step %d: pruned layout %v != exhaustive %v", step, prLayout, exLayout)
		}
		for i := range exDec {
			if exDec[i].Chosen != prDec[i].Chosen || exDec[i].Random != prDec[i].Random {
				t.Fatalf("step %d file %d: pruned (%s, random=%v) != exhaustive (%s, random=%v)",
					step, exDec[i].FileID, prDec[i].Chosen, prDec[i].Random, exDec[i].Chosen, exDec[i].Random)
			}
		}
		// Mutate the world between decisions: dirty a file on both DBs,
		// and retrain on a cadence, so some decisions follow a fit and some
		// do not.
		dirty(exDB, int64(step%4+1))
		dirty(prDB, int64(step%4+1))
		if step%3 == 2 {
			if _, err := ex.TrainContext(context.Background()); err != nil {
				t.Fatal(err)
			}
			if _, err := pr.TrainContext(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if ex.rng.State() != pr.rng.State() {
		t.Fatal("RNG streams diverged between pruned and exhaustive modes")
	}
}

// TestPrunedSkipsCleanFiles checks the incremental accounting: after the
// first (exhaustive) decision, a decision with no new telemetry fetches
// no per-file features at all, and a decision with one dirty file fetches
// exactly that file's. Every decision still scores every candidate.
func TestPrunedSkipsCleanFiles(t *testing.T) {
	base := seedDB(t, 1200)
	store := &countingStore{DB: base}
	cfg := quickCfg()
	cfg.Epsilon = 0
	cfg.TopK = len(testDevices) // the shortlist covers the cluster
	cfg.FullRescanEvery = 100   // keep cadence rescans out of this test
	e, err := NewEngine(store, testDevices, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.tracker == nil {
		t.Fatal("embedded ReplayDB should expose ChangeTracker")
	}
	e.SetSummarySource(func() []storagesim.DeviceSummary { return blueskySummaries() })
	if _, err := e.TrainContext(context.Background()); err != nil {
		t.Fatal(err)
	}

	files := testFiles()
	if _, _, err := e.ProposeLayoutContext(context.Background(), files); err != nil {
		t.Fatal(err)
	}
	first := store.byFileCalls
	if first < len(files) {
		t.Fatalf("exhaustive pass fetched %d files, want ≥ %d", first, len(files))
	}

	// Clean decision: every file keeps its cached features and is scored
	// over the shortlist, the full width here (TopK=6 covers the cluster).
	store.byFileCalls = 0
	_, _, scores, err := e.proposeScored(context.Background(), files)
	if err != nil {
		t.Fatal(err)
	}
	if store.byFileCalls != 0 {
		t.Fatalf("clean decision fetched %d file histories, want 0", store.byFileCalls)
	}
	for i, preds := range scores {
		if len(preds) != len(testDevices) {
			t.Fatalf("clean file %d kept %d cached predictions, want full width %d",
				files[i].ID, len(preds), len(testDevices))
		}
	}

	// One dirty file: only it is re-featurized.
	if _, err := base.AppendAccess(replaydb.AccessRecord{
		Time: 3000, FileID: 2, Device: "USBtmp", BytesRead: 1e8,
		OpenTS: 3000, CloseTS: 3001, Throughput: 5e8,
	}); err != nil {
		t.Fatal(err)
	}
	store.byFileCalls = 0
	_, _, scores, err = e.proposeScored(context.Background(), files)
	if err != nil {
		t.Fatal(err)
	}
	if store.byFileCalls != 1 {
		t.Fatalf("one-dirty-file decision fetched %d file histories, want 1", store.byFileCalls)
	}
	// Every file, dirty or clean, is scored against the shortlist — the
	// full width here.
	for i, preds := range scores {
		if len(preds) != len(testDevices) {
			t.Fatalf("file %d has %d predictions, want %d", files[i].ID, len(preds), len(testDevices))
		}
	}
}

// TestPrunedNarrowShortlist checks genuine pruning: with TopK=1 a pruned
// decision scores a file against exactly the fastest available device and
// its current one, while the full-rescan cadence still restores the full
// width.
func TestPrunedNarrowShortlist(t *testing.T) {
	db := seedDB(t, 1200)
	cfg := quickCfg()
	cfg.Epsilon = 0
	cfg.TopK = 1
	cfg.FullRescanEvery = 3
	e, err := NewEngine(db, testDevices, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.SetSummarySource(func() []storagesim.DeviceSummary { return blueskySummaries() })
	if _, err := e.TrainContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	// var (index 4) is outside the top-1 shortlist; a file living there
	// keeps its current device as a candidate anyway.
	files := []policy.FileInfo{{ID: 7, Path: "/v", Size: 1e8, Device: "var"}}
	if _, _, err := e.ProposeLayoutContext(context.Background(), files); err != nil { // decision 0: exhaustive
		t.Fatal(err)
	}
	if _, err := e.TrainContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, _, scores, err := e.proposeScored(context.Background(), files) // decision 1: pruned
	if err != nil {
		t.Fatal(err)
	}
	scoredOn := func(preds map[string]float64, want ...string) {
		t.Helper()
		got := make([]string, 0, len(preds))
		for dev := range preds {
			got = append(got, dev)
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("pruned decision scored %v, want exactly %v", preds, want)
		}
	}
	// Shortlist: file0, the fastest device, plus the current var.
	scoredOn(scores[0], "file0", "var")
	// Unavailable devices leave the ranking: with file0 and pic down, the
	// top-1 slot goes to people.
	sums := blueskySummaries()
	sums[0].Available = false // file0
	sums[1].Available = false // pic
	e.SetSummarySource(func() []storagesim.DeviceSummary { return sums })
	if _, err := e.TrainContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, _, scores, err = e.proposeScored(context.Background(), files) // decision 2: pruned
	if err != nil {
		t.Fatal(err)
	}
	scoredOn(scores[0], "people", "var")
	_, _, scores, err = e.proposeScored(context.Background(), files) // decision 3: cadence rescan
	if err != nil {
		t.Fatal(err)
	}
	if len(scores[0]) != len(testDevices) {
		t.Fatalf("cadence rescan width = %d, want full %d: %v",
			len(scores[0]), len(testDevices), scores[0])
	}
}

// TestFullRescanRefreshesFeatureCache is the regression test for the
// stale-feature bug of the separate exhaustive branch: a cadence rescan
// scored files from freshly fetched features but left the per-file feature
// cache untouched while advancing the dirty watermark, so the next pruned
// decision saw a clean file and scored it from features cached before its
// newest accesses. The full pass now fills the cache through the same code
// as the pruned pass.
func TestFullRescanRefreshesFeatureCache(t *testing.T) {
	ctx := context.Background()
	db := seedDB(t, 1200)
	cfg := quickCfg()
	cfg.Epsilon = 0
	cfg.TopK = len(testDevices) // the shortlist covers the cluster
	cfg.FullRescanEvery = 2
	e, err := NewEngine(db, testDevices, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.SetSummarySource(func() []storagesim.DeviceSummary { return blueskySummaries() })
	files := []policy.FileInfo{{ID: 2, Path: "/f2", Size: 1e8, Device: "pic"}}
	decide := func() map[string]float64 {
		t.Helper()
		if _, err := e.TrainContext(ctx); err != nil {
			t.Fatal(err)
		}
		_, _, scores, err := e.proposeScored(ctx, files)
		if err != nil {
			t.Fatal(err)
		}
		return scores[0]
	}
	decide() // decision 0: full pass
	decide() // decision 1: pruned — caches file 2's features
	// New accesses move file 2's averaged rb/wb.
	for i := 0; i < 3; i++ {
		if _, err := db.AppendAccess(replaydb.AccessRecord{
			Time: float64(3000 + i), FileID: 2, Device: "pic", BytesRead: 10, BytesWritten: 4e9,
			OpenTS: int64(3000 + i), CloseTS: int64(3001 + i), Throughput: 5e8,
		}); err != nil {
			t.Fatal(err)
		}
	}
	decide()      // decision 2: cadence rescan — advances the watermark past the new accesses
	d := decide() // decision 3: pruned — file 2 is clean
	if len(d) != len(testDevices) {
		t.Fatalf("TopK=6 covers the cluster, got %d predictions: %v", len(d), d)
	}
	for _, dev := range testDevices {
		if want := e.predictCandidate(files[0], dev); d[dev] != want {
			t.Errorf("file 2 on %s: pruned decision predicted %v from cached features, oracle %v", dev, d[dev], want)
		}
	}
}

// TestShortlistSeedsNominalDevices is the regression test for the
// never-probed-device starvation bug: a device idle since decision 0
// carries only its nominal-bandwidth fallback in the summaries
// (DeviceSummary.Nominal), and when that spec-sheet guess ranked below
// other devices' measured throughput, the device fell out of the top-K
// shortlist and was never re-probed until the next full rescan — including
// on the first pruned decision after a checkpoint restore. Never-probed
// devices must always be shortlisted.
func TestShortlistSeedsNominalDevices(t *testing.T) {
	db := seedDB(t, 1200)
	cfg := quickCfg()
	cfg.Epsilon = 0
	cfg.TopK = 1
	cfg.FullRescanEvery = 100 // keep cadence rescans out of this test
	sums := blueskySummaries()
	// var has never served an access: its summary carries the nominal
	// fallback, which ranks below file0's measured rate.
	sums[4].Nominal = true
	mk := func() *Engine {
		e, err := NewEngine(db, testDevices, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.SetSummarySource(func() []storagesim.DeviceSummary { return sums })
		return e
	}
	e := mk()
	if _, err := e.TrainContext(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Shortlist level: var (index 4) loses the top-1 slot to file0 but
	// stays a candidate as a never-probed device.
	if got := e.deviceShortlist(); !reflect.DeepEqual(got, []int{0, 4}) {
		t.Fatalf("shortlist with nominal device = %v, want it included", got)
	}

	// Decision level, across a restore: the first pruned decision after the
	// round-trip still scores the idle device.
	files := []policy.FileInfo{{ID: 7, Path: "/t", Size: 1e8, Device: "tmp"}}
	if _, _, err := e.ProposeLayoutContext(context.Background(), files); err != nil { // decision 0: exhaustive
		t.Fatal(err)
	}
	st, err := e.State()
	if err != nil {
		t.Fatal(err)
	}
	r := mk()
	if err := r.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if _, err := r.TrainContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, _, scores, err := r.proposeScored(context.Background(), files) // decision 1: pruned
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := scores[0]["var"]; !ok {
		t.Fatalf("first pruned decision after restore never probed the idle device: %v", scores[0])
	}
}

// TestPrunedStateRoundTrip checks bit-identical resume mid-pruned-stream:
// a restored engine continues the decision sequence exactly where the
// original would have, cadence and dirty watermark included, and neither
// a pruned nor an unpruned snapshot carries per-file score state.
func TestPrunedStateRoundTrip(t *testing.T) {
	db := seedDB(t, 1200)
	cfg := quickCfg()
	cfg.Epsilon = 0.3
	cfg.TopK = 2
	cfg.FullRescanEvery = 4
	mk := func() *Engine {
		e, err := NewEngine(db, testDevices, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.SetSummarySource(func() []storagesim.DeviceSummary { return blueskySummaries() })
		return e
	}
	a := mk()
	if _, err := a.TrainContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	files := testFiles()
	for i := 0; i < 3; i++ {
		if _, _, err := a.ProposeLayoutContext(context.Background(), files); err != nil {
			t.Fatal(err)
		}
	}
	st, err := a.State()
	if err != nil {
		t.Fatal(err)
	}
	if old := asParentState(t, st); len(old.ScoreCache) != 0 || old.ModelGen != 0 {
		t.Fatalf("TopK=2 snapshot carries score state: %d cache entries, generation %d", len(old.ScoreCache), old.ModelGen)
	}

	b := mk()
	if err := b.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	// New telemetry lands after the snapshot; both engines see it.
	if _, err := db.AppendAccess(replaydb.AccessRecord{
		Time: 5000, FileID: 3, Device: "file0", BytesRead: 3e8,
		OpenTS: 5000, CloseTS: 5001, Throughput: 6e9,
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		la, da, err := a.ProposeLayoutContext(context.Background(), files)
		if err != nil {
			t.Fatal(err)
		}
		lb, db2, err := b.ProposeLayoutContext(context.Background(), files)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(la, lb) {
			t.Fatalf("step %d: restored layout %v != original %v", i, lb, la)
		}
		if !reflect.DeepEqual(da, db2) {
			t.Fatalf("step %d: restored decisions diverged", i)
		}
	}

	// With pruning off no number of decisions puts pruning state into the
	// snapshot.
	cfg.TopK = 0
	u := mk()
	if _, err := u.TrainContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := u.ProposeLayoutContext(context.Background(), files); err != nil {
			t.Fatal(err)
		}
	}
	if st, err = u.State(); err != nil {
		t.Fatal(err)
	}
	if old := asParentState(t, st); len(old.ScoreCache) != 0 || st.LastWatermark != 0 {
		t.Fatalf("TopK=0 snapshot carries pruning state: %d cache entries, watermark %d", len(old.ScoreCache), st.LastWatermark)
	}
}

// parentEngineState is EngineState as snapshots wrote it while the engine
// cached scores across decisions: the model generation and every file's
// per-device scores and generations rode along. (The model was then a gob
// blob of its own; Net has today's type so gob carries it across.)
type parentEngineState struct {
	RNG           uint64
	Net           nn.State
	Devices       []string
	FeatScaler    features.MinMaxState
	TargetScaler  features.ScalarState
	ValMetrics    nn.Metrics
	Trained       bool
	TrainedSeq    uint64
	DecisionCount uint64
	ModelGen      uint64
	LastWatermark uint64
	ScoreCache    []parentFileScoreState
}

type parentFileScoreState struct {
	FileID int64
	Size   int64
	Scores []float64
	Gens   []uint64
}

// gobRoundTrip encodes from and decodes the bytes into to.
func gobRoundTrip(t *testing.T, from, to any) {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(from); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewDecoder(&buf).Decode(to); err != nil {
		t.Fatal(err)
	}
}

// asParentState reads a snapshot the way a parent-form reader would.
func asParentState(t *testing.T, st EngineState) parentEngineState {
	t.Helper()
	var old parentEngineState
	gobRoundTrip(t, st, &old)
	return old
}

// TestRestoreIgnoresParentScoreCache: a snapshot written while the engine
// still cached scores restores, and its score cache is ignored. Even cached
// scores tagged with the snapshot's current generation, which the old
// engine would have reused on a decision without a fit, change nothing:
// the next decisions equal those restored from the same state without
// them.
func TestRestoreIgnoresParentScoreCache(t *testing.T) {
	db := seedDB(t, 1200)
	cfg := quickCfg()
	cfg.Epsilon = 0.3
	cfg.TopK = 2
	cfg.FullRescanEvery = 4
	mk := func() *Engine {
		e, err := NewEngine(db, testDevices, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.SetSummarySource(func() []storagesim.DeviceSummary { return blueskySummaries() })
		return e
	}
	a := mk()
	if _, err := a.TrainContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	files := testFiles()
	for i := 0; i < 2; i++ {
		if _, _, err := a.ProposeLayoutContext(context.Background(), files); err != nil {
			t.Fatal(err)
		}
	}
	st, err := a.State()
	if err != nil {
		t.Fatal(err)
	}

	// The parent form: every file cached, at the current generation, with a
	// score that would win on the last device and lose everywhere else.
	old := asParentState(t, st)
	old.ModelGen = 9
	for _, f := range files {
		fs := parentFileScoreState{FileID: f.ID, Size: f.Size,
			Scores: make([]float64, len(testDevices)), Gens: make([]uint64, len(testDevices))}
		for j := range fs.Gens {
			fs.Gens[j] = old.ModelGen
		}
		fs.Scores[len(testDevices)-1] = 1e30
		old.ScoreCache = append(old.ScoreCache, fs)
	}
	var withCache, without EngineState
	gobRoundTrip(t, old, &withCache)
	gobRoundTrip(t, st, &without)

	b, c := mk(), mk()
	if err := b.RestoreState(withCache); err != nil {
		t.Fatalf("restoring a parent-form snapshot with a score cache: %v", err)
	}
	if err := c.RestoreState(without); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		lb, db2, err := b.ProposeLayoutContext(context.Background(), files)
		if err != nil {
			t.Fatal(err)
		}
		lc, dc, err := c.ProposeLayoutContext(context.Background(), files)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(lb, lc) || !reflect.DeepEqual(db2, dc) {
			t.Fatalf("decision %d: restored with the score cache %v, without %v", i, db2, dc)
		}
	}
}
