package core

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"geomancy/internal/agents"
	"geomancy/internal/features"
	"geomancy/internal/nn"
	"geomancy/internal/policy"
	"geomancy/internal/replaydb"
	"geomancy/internal/rng"
	"geomancy/internal/storagesim"
	"geomancy/internal/telemetry"
	"geomancy/internal/trace"
	"geomancy/internal/workload"
)

var testDevices = []string{"file0", "pic", "people", "tmp", "var", "USBtmp"}

// seedDB fills a memory database with synthetic telemetry: device i has a
// characteristic throughput, so the model has structure to learn.
func seedDB(t testing.TB, n int) *replaydb.DB {
	t.Helper()
	db, err := replaydb.Open(replaydb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	rng := rng.New(9)
	speeds := []float64{8e9, 2e9, 1.7e9, 1.6e9, 1.3e9, 0.6e9}
	for i := 0; i < n; i++ {
		dev := rng.Intn(len(testDevices))
		tp := speeds[dev] * (0.7 + 0.6*rng.Float64())
		rec := replaydb.AccessRecord{
			Time:       float64(i),
			FileID:     int64(rng.Intn(24) + 1),
			Device:     testDevices[dev],
			BytesRead:  int64(1e8 + rng.Float64()*9e8),
			OpenTS:     int64(i),
			CloseTS:    int64(i),
			CloseTMS:   500,
			Throughput: tp,
		}
		if _, err := db.AppendAccess(rec); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func quickCfg() Config {
	return Config{Epochs: 8, WindowX: 400, Seed: 1}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.ModelNumber != 1 || cfg.Epsilon != 0.1 ||
		cfg.CooldownRuns != 5 || cfg.WindowX != 2000 || cfg.Epochs != 200 ||
		cfg.Optimizer != "sgd" || cfg.SmoothWindow != 8 {
		t.Errorf("defaults wrong: %+v", cfg)
	}
}

func TestNewEngineValidation(t *testing.T) {
	db := seedDB(t, 10)
	if _, err := NewEngine(db, nil, Config{}); err == nil {
		t.Error("no devices should error")
	}
	if _, err := NewEngine(db, testDevices, Config{ModelNumber: 99}); err == nil {
		t.Error("bad model number should error")
	}
}

func TestTrainProducesMetrics(t *testing.T) {
	db := seedDB(t, 1200)
	e, err := NewEngine(db, testDevices, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if e.trained {
		t.Error("engine should start untrained")
	}
	rep, err := e.TrainContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !e.trained {
		t.Error("engine should be trained")
	}
	if rep.Samples != 1200 {
		t.Errorf("samples = %d, want 1200", rep.Samples)
	}
	if rep.Duration <= 0 {
		t.Error("duration not measured")
	}
	if rep.Validation.Diverged {
		t.Errorf("model diverged on easy synthetic data: %+v", rep.Validation)
	}
	if rep.Validation.MARE <= 0 || rep.Validation.MARE > 100 {
		t.Errorf("validation MARE = %v, want sane percentage", rep.Validation.MARE)
	}
}

func TestTrainEmptyDB(t *testing.T) {
	db, _ := replaydb.Open(replaydb.Options{})
	defer db.Close()
	e, err := NewEngine(db, testDevices, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.TrainContext(context.Background()); err == nil {
		t.Error("training on an empty ReplayDB should error")
	}
}

func TestProposeRequiresTraining(t *testing.T) {
	db := seedDB(t, 100)
	e, _ := NewEngine(db, testDevices, quickCfg())
	if _, _, err := e.ProposeLayoutContext(context.Background(), []policy.FileInfo{{ID: 1}}); err == nil {
		t.Error("propose before training should error")
	}
}

func TestProposeLayoutCoversFilesAndCandidates(t *testing.T) {
	db := seedDB(t, 1200)
	cfg := quickCfg()
	cfg.Epsilon = 0 // deterministic greedy for this test
	e, err := NewEngine(db, testDevices, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.TrainContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	files := []policy.FileInfo{
		{ID: 1, Path: "/a", Size: 1e8, Device: "pic"},
		{ID: 2, Path: "/b", Size: 2e8, Device: "USBtmp"},
	}
	layout, decisions, scores, err := e.proposeScored(context.Background(), files)
	if err != nil {
		t.Fatal(err)
	}
	if len(layout) != 2 || len(decisions) != 2 {
		t.Fatalf("layout %v decisions %d", layout, len(decisions))
	}
	for i, d := range decisions {
		if d.FileID != files[i].ID || d.Current != files[i].Device {
			t.Errorf("decision %d is for file %d on %s, want input order (file %d on %s)",
				i, d.FileID, d.Current, files[i].ID, files[i].Device)
		}
		preds := scores[i]
		if len(preds) != len(testDevices) {
			t.Errorf("file %d has %d candidate predictions, want %d (must include 'don't move')",
				d.FileID, len(preds), len(testDevices))
		}
		if _, ok := preds[d.Current]; !ok {
			t.Errorf("file %d missing prediction for its current location", d.FileID)
		}
		if d.Random {
			t.Error("epsilon=0 must not explore")
		}
		// Chosen is the argmax of the predictions, and the record carries
		// its score.
		best, bestV := "", -1.0
		for dev, v := range preds {
			if v > bestV {
				best, bestV = dev, v
			}
		}
		if d.Chosen != best {
			t.Errorf("file %d chose %s (%.3g) over argmax %s (%.3g)",
				d.FileID, d.Chosen, preds[d.Chosen], best, bestV)
		}
		if d.Predicted != preds[d.Chosen] {
			t.Errorf("file %d records %.3g for %s, its score says %.3g",
				d.FileID, d.Predicted, d.Chosen, preds[d.Chosen])
		}
	}
}

func TestProposeLayoutExploration(t *testing.T) {
	db := seedDB(t, 800)
	cfg := quickCfg()
	cfg.Epsilon = 1 // always explore
	e, err := NewEngine(db, testDevices, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.TrainContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	files := make([]policy.FileInfo, 20)
	for i := range files {
		files[i] = policy.FileInfo{ID: int64(i + 1), Size: 1e6, Device: "pic"}
	}
	_, decisions, err := e.ProposeLayoutContext(context.Background(), files)
	if err != nil {
		t.Fatal(err)
	}
	chosen := map[string]bool{}
	for _, d := range decisions {
		if !d.Random {
			t.Fatal("epsilon=1 must always explore")
		}
		chosen[d.Chosen] = true
	}
	if len(chosen) < 3 {
		t.Errorf("exploration not spreading: %v", chosen)
	}
}

func TestProposeLayoutRespectsValidator(t *testing.T) {
	db := seedDB(t, 800)
	cfg := quickCfg()
	cfg.Epsilon = 0
	e, err := NewEngine(db, testDevices, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.TrainContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Only USBtmp is valid.
	e.valid = func(dev string, size int64) error {
		if dev != "USBtmp" {
			return agentsErr("invalid")
		}
		return nil
	}
	files := []policy.FileInfo{{ID: 1, Size: 1e6, Device: "pic"}}
	layout, _, err := e.ProposeLayoutContext(context.Background(), files)
	if err != nil {
		t.Fatal(err)
	}
	if layout[1] != "USBtmp" {
		t.Errorf("layout = %v, want USBtmp (only valid device)", layout)
	}
}

type agentsErr string

func (e agentsErr) Error() string { return string(e) }

func TestShouldAct(t *testing.T) {
	l := NewPolicyLoop(nil, nil, nil, nil, 5)
	acts := 0
	for run := 0; run < 20; run++ {
		if l.shouldDecide(run) {
			acts++
			if (run+1)%5 != 0 {
				t.Errorf("acted on run %d", run)
			}
		}
	}
	if acts != 4 {
		t.Errorf("acted %d times in 20 runs, want 4", acts)
	}
}

// TestNewEngineRejectsRecurrent: the engine scores dense models only, so
// every recurrent Table I architecture is refused at construction — by a
// plain engine and by the sharded coordinator at any width.
func TestNewEngineRejectsRecurrent(t *testing.T) {
	db := seedDB(t, 10)
	for m := 12; m <= nn.ModelCount; m++ {
		cfg := quickCfg()
		cfg.ModelNumber = m
		if _, err := NewEngine(db, testDevices, cfg); !errors.Is(err, ErrRecurrentModel) {
			t.Errorf("NewEngine(model %d) = %v, want ErrRecurrentModel", m, err)
		}
		for _, n := range []int{1, 2} {
			if _, err := NewSharded(db, storagesim.NewBluesky(1), n, nil, cfg); !errors.Is(err, ErrRecurrentModel) {
				t.Errorf("NewSharded(model %d, %d shards) = %v, want ErrRecurrentModel", m, n, err)
			}
		}
	}
}

// Full closed loop: Geomancy should discover that file0 is fast and shift
// load toward it relative to the even spread.
func TestLoopEndToEnd(t *testing.T) {
	cluster := storagesim.NewBluesky(11)
	files := trace.BelleFileSet(11)
	runner := workload.NewRunner(cluster, files, 1, 11)
	if err := runner.SpreadEvenly(cluster.DeviceNames()); err != nil {
		t.Fatal(err)
	}
	db, _ := replaydb.Open(replaydb.Options{})
	defer db.Close()

	cfg := Config{Epochs: 6, WindowX: 500, CooldownRuns: 2, Seed: 11}
	loop, err := NewNamedLoop(db, db, cluster, runner, "geomancy", cfg)
	if err != nil {
		t.Fatal(err)
	}

	var observed int
	loop.Observer = func(res storagesim.AccessResult, wl, run int) { observed++ }

	for i := 0; i < 6; i++ {
		stats, err := loop.RunOnceContext(context.Background())
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if stats.Accesses == 0 {
			t.Fatalf("run %d made no accesses", i)
		}
	}
	if loop.accessCount == 0 || int(loop.accessCount) != observed {
		t.Errorf("access count %d, observer saw %d", loop.accessCount, observed)
	}
	if db.Len() != int(loop.accessCount) {
		t.Errorf("db has %d records, loop counted %d", db.Len(), loop.accessCount)
	}
	// Cooldown 2 over 6 runs → 3 decision points.
	if got := len(loop.TrainLog()); got != 3 {
		t.Errorf("trained %d times, want 3", got)
	}
	if got := len(loop.Movements()); got != 3 {
		t.Errorf("%d movement events, want 3", got)
	}
	for _, mv := range loop.Movements() {
		if mv.AccessIndex <= 0 {
			t.Error("movement event missing access index")
		}
	}
	// Movement records persisted.
	var moved int
	for _, mv := range loop.Movements() {
		moved += mv.Moved
	}
	if db.MovementCount() != moved {
		t.Errorf("db recorded %d movements, loop performed %d", db.MovementCount(), moved)
	}
}

func TestEngineAdamOption(t *testing.T) {
	db := seedDB(t, 600)
	cfg := quickCfg()
	cfg.Optimizer = "adam"
	e, err := NewEngine(db, testDevices, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.TrainContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	cfg.Optimizer = "bogus"
	e2, _ := NewEngine(db, testDevices, cfg)
	if _, err := e2.TrainContext(context.Background()); err == nil {
		t.Error("bogus optimizer should error")
	}
}

func TestEngineSmoothingModes(t *testing.T) {
	for _, w := range []int{1, 8, -1} {
		db := seedDB(t, 400)
		cfg := quickCfg()
		cfg.SmoothWindow = w
		e, err := NewEngine(db, testDevices, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.TrainContext(context.Background()); err != nil {
			t.Fatalf("smoothing mode %d: %v", w, err)
		}
	}
}

func TestCheckerIntegration(t *testing.T) {
	db := seedDB(t, 600)
	cfg := quickCfg()
	cfg.Epsilon = 0
	e, _ := NewEngine(db, testDevices, cfg)
	e.TrainContext(context.Background())
	cluster := storagesim.NewBluesky(12)
	// Knock out every device: the Action Checker's random fallback fires,
	// drawing from the engine's own stream.
	for _, d := range cluster.DeviceNames() {
		cluster.SetAvailable(d, false)
	}
	e.valid = cluster.CanPlace
	files := []policy.FileInfo{{ID: 1, Size: 1e6, Device: "pic"}}
	before := e.rng.State()
	_, decisions, err := e.ProposeLayoutContext(context.Background(), files)
	if err != nil {
		t.Fatal(err)
	}
	if !decisions[0].Random {
		t.Error("all-invalid candidates must trigger the random fallback")
	}
	// One ε draw plus one fallback draw, both from e.rng.
	want := rng.FromState(before)
	want.Float64()
	want.Intn(len(testDevices))
	if e.rng.State() != want.State() {
		t.Error("random fallback did not draw from the engine's stream")
	}
}

func TestLatencyTarget(t *testing.T) {
	db, err := replaydb.Open(replaydb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Device "fast" serves in 0.1s, "slow" in 2s, same bytes.
	rng := rng.New(31)
	for i := 0; i < 900; i++ {
		dev, dur := "fast", 0.08+0.04*rng.Float64()
		if i%2 == 0 {
			dev, dur = "slow", 1.8+0.4*rng.Float64()
		}
		start := float64(i)
		db.AppendAccess(replaydb.AccessRecord{
			Time:       start,
			FileID:     int64(i%8 + 1),
			Device:     dev,
			BytesRead:  1e8,
			OpenTS:     int64(start),
			CloseTS:    int64(start + dur),
			CloseTMS:   int64((start + dur - float64(int64(start+dur))) * 1000),
			Throughput: 1e8 / dur,
		})
	}
	cfg := Config{Epochs: 25, WindowX: 500, Seed: 31, Target: TargetLatency, Epsilon: 1e-9}
	e, err := NewEngine(db, []string{"fast", "slow"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.TrainContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	layout, decisions, scores, err := e.proposeScored(context.Background(), []policy.FileInfo{{ID: 1, Size: 1e8, Device: "slow"}})
	if err != nil {
		t.Fatal(err)
	}
	p := scores[0]
	if layout[1] != "fast" {
		t.Errorf("latency target chose %q, want fast (predictions %v)", layout[1], p)
	}
	// The chosen device has the LOWER predicted latency, which is what the
	// decision record carries.
	if len(p) != 2 || p["fast"] >= p["slow"] {
		t.Errorf("predicted latency fast=%v slow=%v, want fast < slow", p["fast"], p["slow"])
	}
	if decisions[0].Predicted != p["fast"] {
		t.Errorf("decision records %v, want the chosen device's predicted latency %v", decisions[0].Predicted, p["fast"])
	}
}

func TestUnknownTargetRejected(t *testing.T) {
	db := seedDB(t, 10)
	if _, err := NewEngine(db, testDevices, Config{Target: "iops"}); err == nil {
		t.Error("unknown target should error")
	}
}

// TestNegativePruningConfigRejected: a negative TopK used to panic in the
// first pruned decision's shortlist, and a negative FullRescanEvery
// silently turned the cadence rescan off. NewEngine refuses both, naming
// the field.
func TestNegativePruningConfigRejected(t *testing.T) {
	db := seedDB(t, 10)
	for _, tc := range []struct {
		field string
		cfg   Config
	}{
		{"TopK", Config{TopK: -1}},
		{"FullRescanEvery", Config{TopK: 2, FullRescanEvery: -1}},
	} {
		_, err := NewEngine(db, testDevices, tc.cfg)
		if err == nil || !strings.Contains(err.Error(), "Config."+tc.field+" ") {
			t.Errorf("negative %s: err = %v, want one naming Config.%s", tc.field, err, tc.field)
		}
	}
}

// The engine must train identically through the Interface Daemon's wire
// protocol (Fig. 2's decoupling) as it does against the local database.
func TestEngineOverRemoteStore(t *testing.T) {
	db := seedDB(t, 900)
	daemon := agents.NewDaemon(dbUnderlying(db))
	addr, err := daemon.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer daemon.Close()
	store, err := agents.DialRemoteStore(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	cfg := quickCfg()
	cfg.Epsilon = 0
	remote, err := NewEngine(store, testDevices, cfg)
	if err != nil {
		t.Fatal(err)
	}
	repR, err := remote.TrainContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	local, err := NewEngine(db, testDevices, cfg)
	if err != nil {
		t.Fatal(err)
	}
	repL, err := local.TrainContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if repR.Samples != repL.Samples {
		t.Errorf("remote trained on %d samples, local on %d", repR.Samples, repL.Samples)
	}
	if repR.Validation.MARE != repL.Validation.MARE {
		t.Errorf("remote val MARE %v != local %v (training paths diverged)",
			repR.Validation.MARE, repL.Validation.MARE)
	}
	// Proposals agree too.
	files := []policy.FileInfo{{ID: 1, Size: 1e8, Device: "pic"}}
	lr, _, err := remote.ProposeLayoutContext(context.Background(), files)
	if err != nil {
		t.Fatal(err)
	}
	ll, _, err := local.ProposeLayoutContext(context.Background(), files)
	if err != nil {
		t.Fatal(err)
	}
	if lr[1] != ll[1] {
		t.Errorf("remote proposal %v != local %v", lr, ll)
	}
	if err := store.Err(); err != nil {
		t.Errorf("transport errors during training: %v", err)
	}
}

// dbUnderlying returns the concrete DB for daemon construction.
func dbUnderlying(db *replaydb.DB) *replaydb.DB { return db }

// Telemetry write failures surface as loop errors rather than being
// silently dropped.
func TestLoopSurfacesDBErrors(t *testing.T) {
	cluster := storagesim.NewBluesky(41)
	files := trace.BelleFileSet(41)
	runner := workload.NewRunner(cluster, files, 1, 41)
	if err := runner.SpreadEvenly(cluster.DeviceNames()); err != nil {
		t.Fatal(err)
	}
	db, _ := replaydb.Open(replaydb.Options{})
	loop, err := NewNamedLoop(db, db, cluster, runner, "geomancy", Config{Epochs: 2, WindowX: 100, CooldownRuns: 2, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	db.Close() // appends now fail
	if _, err := loop.RunOnceContext(context.Background()); err == nil {
		t.Error("RunOnce should fail when telemetry cannot be recorded")
	}
}

// A device disappearing between decisions must not abort the decision
// cycle: invalid destinations are filtered (Action Checker), moves to it
// are skipped, and the loop keeps running as long as the workload's own
// files remain reachable.
func TestLoopSurvivesDeviceLossForPlacement(t *testing.T) {
	cluster := storagesim.NewBluesky(42)
	files := trace.BelleFileSet(42)
	runner := workload.NewRunner(cluster, files, 1, 42)
	// Keep every file off USBtmp so losing it cannot break accesses.
	devs := []string{"file0", "pic", "people", "tmp", "var"}
	for i, f := range files {
		if err := cluster.PlaceFile(f.ID, f.Path, f.Size, devs[i%len(devs)]); err != nil {
			t.Fatal(err)
		}
	}
	db, _ := replaydb.Open(replaydb.Options{})
	defer db.Close()
	loop, err := NewNamedLoop(db, db, cluster, runner, "geomancy", Config{Epochs: 4, WindowX: 300, CooldownRuns: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loop.RunOnceContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	cluster.SetAvailable("USBtmp", false)
	for i := 0; i < 3; i++ {
		if _, err := loop.RunOnceContext(context.Background()); err != nil {
			t.Fatalf("run after device loss: %v", err)
		}
	}
	for id, dev := range cluster.Layout() {
		if dev == "USBtmp" {
			t.Errorf("file %d placed on the unavailable device", id)
		}
	}
}

// An incremental update is the training body run on a small window with
// the last full cycle's scalers and validation metrics held fixed, and it
// reports failures the way a full cycle does: every error path counts as
// a training error.
func TestUpdateSharesTheFitBody(t *testing.T) {
	db := seedDB(t, 1200)
	e, err := NewEngine(db, testDevices, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	e.SetMetrics(reg)
	trainErrs := reg.Counter(telemetry.MetricTrainingErrorsTotal)
	trainings := reg.Counter(telemetry.MetricTrainingsTotal)

	if _, err := e.UpdateContext(context.Background()); !errors.Is(err, ErrNotTrained) {
		t.Fatalf("update before any full cycle = %v, want ErrNotTrained", err)
	}
	if got := trainErrs.Value(); got != 1 {
		t.Errorf("training errors after an untrained update = %d, want 1", got)
	}

	full, err := e.TrainContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	feat, target := e.featScaler.State(), e.targetScaler.State()
	rep, err := e.UpdateContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if max := DefaultUpdateWindow * len(testDevices); rep.Samples == 0 || rep.Samples > max {
		t.Errorf("update trained on %d samples, want 1..%d (the newest window per device)", rep.Samples, max)
	}
	if rep.Validation != full.Validation {
		t.Errorf("update reported validation %+v, want the last full cycle's %+v", rep.Validation, full.Validation)
	}
	if !reflect.DeepEqual(e.featScaler.State(), feat) || e.targetScaler.State() != target {
		t.Error("update refitted the scalers")
	}
	if got := trainings.Value(); got != 2 {
		t.Errorf("trainings counted = %d, want 2 (one full cycle, one update)", got)
	}

	e.cfg.Optimizer = "bogus"
	if _, err := e.UpdateContext(context.Background()); err == nil {
		t.Error("update with an unknown optimizer succeeded")
	}
	if got := trainErrs.Value(); got != 2 {
		t.Errorf("training errors after an unknown-optimizer update = %d, want 2", got)
	}
}

// TestRestoreStateRejectsUnscorableNetwork: a snapshot whose network the
// dense scorer cannot run — recurrent, the wrong input width, more than
// one output — is an error at restore, not a panic at the next decision,
// and it leaves the engine as it was.
func TestRestoreStateRejectsUnscorableNetwork(t *testing.T) {
	r := rng.New(3).Rand
	cases := map[string]*nn.Network{
		"recurrent":    nn.MustBuildModel(18, featureCount, r),
		"seven inputs": nn.MustBuildModel(1, featureCount+1, r),
		"two outputs":  nn.NewNetwork(featureCount).AddDense(4, nn.ReLU, r).AddDense(2, nn.Linear, r),
	}
	for name, net := range cases {
		t.Run(name, func(t *testing.T) {
			e, err := NewEngine(seedDB(t, 50), testDevices, quickCfg())
			if err != nil {
				t.Fatal(err)
			}
			st, err := e.State()
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := net.Save(&buf); err != nil {
				t.Fatal(err)
			}
			st.Net = buf.Bytes()
			st.RNG++
			st.Devices = testDevices[:2]
			rngBefore, netBefore := e.rng.State(), e.net
			err = e.RestoreState(st)
			if err == nil {
				t.Fatal("RestoreState accepted a network the scorer cannot run")
			}
			if name == "recurrent" && !errors.Is(err, ErrRecurrentModel) {
				t.Errorf("RestoreState = %v, want ErrRecurrentModel", err)
			}
			if e.rng.State() != rngBefore || !reflect.DeepEqual(e.devices, testDevices) || e.net != netBefore {
				t.Error("a refused restore mutated the engine")
			}
		})
	}
}

// TestRestoreStateRejectsInconsistentState: a snapshot a later decision
// would index past — a fitted feature scaler narrower than the feature
// vector — is refused with ErrInvalidState, and the engine is left as it
// was.
func TestRestoreStateRejectsInconsistentState(t *testing.T) {
	short, full := make([]float64, featureCount-1), make([]float64, featureCount)
	cases := []struct {
		name    string
		corrupt func(st *EngineState)
		want    string
	}{
		{"scaler minima short", func(st *EngineState) {
			st.FeatScaler = features.MinMaxState{Min: short, Max: full, Fitted: true}
		}, "5 minima and 6 maxima"},
		{"scaler maxima short", func(st *EngineState) {
			st.FeatScaler = features.MinMaxState{Min: full, Max: short, Fitted: true}
		}, "6 minima and 5 maxima"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e, err := NewEngine(seedDB(t, 50), testDevices, quickCfg())
			if err != nil {
				t.Fatal(err)
			}
			st, err := e.State()
			if err != nil {
				t.Fatal(err)
			}
			c.corrupt(&st)
			st.RNG++
			st.Devices = testDevices[:2]
			rngBefore, netBefore := e.rng.State(), e.net
			err = e.RestoreState(st)
			if !errors.Is(err, ErrInvalidState) || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("RestoreState = %v, want ErrInvalidState naming %q", err, c.want)
			}
			if e.rng.State() != rngBefore || !reflect.DeepEqual(e.devices, testDevices) || e.net != netBefore {
				t.Error("a refused restore mutated the engine")
			}
		})
	}
}

// TestRestoreStateRejectsOtherDevices: a snapshot scored over another
// device list than the engine's is refused with ErrInvalidState before
// anything changes.
func TestRestoreStateRejectsOtherDevices(t *testing.T) {
	t.Run("engine", func(t *testing.T) {
		e, err := NewEngine(seedDB(t, 50), testDevices, quickCfg())
		if err != nil {
			t.Fatal(err)
		}
		st, err := e.State()
		if err != nil {
			t.Fatal(err)
		}
		st.Devices = []string{"file0", "people", "pic", "tmp", "var", "USBtmp"}
		st.RNG++
		rngBefore, netBefore := e.rng.State(), e.net
		if err := e.RestoreState(st); !errors.Is(err, ErrInvalidState) {
			t.Fatalf("RestoreState = %v, want ErrInvalidState", err)
		}
		if e.rng.State() != rngBefore || !reflect.DeepEqual(e.devices, testDevices) || e.net != netBefore {
			t.Error("a refused restore mutated the engine")
		}
	})
}
