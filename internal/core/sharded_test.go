package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"reflect"
	"testing"
	"time"

	"geomancy/internal/policy"
	"geomancy/internal/replaydb"
	"geomancy/internal/rng"
	"geomancy/internal/storagesim"
	"geomancy/internal/telemetry"
)

// shardedBluesky builds a coordinator over a fresh Bluesky cluster and
// the shared synthetic telemetry DB, trained and ready to decide.
func shardedBluesky(t *testing.T, db TelemetryStore, n int, cfg Config) *Sharded {
	t.Helper()
	s, err := NewSharded(db, storagesim.NewBluesky(1), n, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.global.Engine.TrainContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	return s
}

// shardCounter reads shard i's value of one of the coordinator's
// per-shard counters from the registry installed with SetMetrics.
func shardCounter(reg *telemetry.Registry, name string, i int) uint64 {
	return reg.Counter(name, telemetry.L("shard", fmt.Sprint(i))).Value()
}

// TestShardedSingleShardMatchesEngine pins the compatibility contract: a
// 1-shard coordinator is the unsharded engine, bit-for-bit — same
// layouts, same decisions, same RNG stream — across decide cycles and
// retrains.
func TestShardedSingleShardMatchesEngine(t *testing.T) {
	db := seedDB(t, 1200)
	cfg := quickCfg()
	cfg.Epsilon = 0.3 // exploration exercises the RNG-alignment claim

	cluster := storagesim.NewBluesky(1)
	plain, err := NewEngine(db, cluster.DeviceNames(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain.NewModel(cluster)
	if _, err := plain.TrainContext(context.Background()); err != nil {
		t.Fatal(err)
	}

	s := shardedBluesky(t, db, 1, cfg)
	reg := telemetry.NewRegistry()
	s.SetMetrics(reg)

	files := testFiles()
	for step := 0; step < 6; step++ {
		wantLayout, wantDec, err := plain.ProposeLayoutContext(t.Context(), files)
		if err != nil {
			t.Fatal(err)
		}
		gotLayout, gotDec, err := s.DecideLayout(t.Context(), files)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantLayout, gotLayout) {
			t.Fatalf("step %d: 1-shard layout %v != engine layout %v", step, gotLayout, wantLayout)
		}
		if !reflect.DeepEqual(wantDec, gotDec) {
			t.Fatalf("step %d: 1-shard decisions diverged from the engine's", step)
		}
		if step == 2 {
			if _, err := plain.TrainContext(context.Background()); err != nil {
				t.Fatal(err)
			}
			if _, err := s.global.Engine.TrainContext(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if plain.rng.State() != s.global.Engine.rng.State() {
		t.Fatal("RNG streams diverged between the engine and the 1-shard coordinator")
	}
	if got := shardCounter(reg, telemetry.MetricShardDecisions, 0); got != 6*uint64(len(files)) {
		t.Errorf("shard 0 decision count = %d, want %d", got, 6*len(files))
	}
}

// TestShardedDeterministicAcrossParallelism pins the coordinator's
// deterministic-parallelism rule: each shard's scoring loop runs on four
// workers, but shards merge in fixed shard order on per-shard RNG
// streams, so Parallelism 4 reproduces the serial trajectory bit-for-bit,
// retrains included.
func TestShardedDeterministicAcrossParallelism(t *testing.T) {
	db := seedDB(t, 1200)
	run := func(parallelism int) ([]map[int64]string, [][]policy.Prediction) {
		cfg := quickCfg()
		cfg.Epsilon = 0.3
		cfg.Parallelism = parallelism
		s := shardedBluesky(t, db, 4, cfg)
		files := testFiles()
		var layouts []map[int64]string
		var decs [][]policy.Prediction
		for step := 0; step < 6; step++ {
			l, d, err := s.DecideLayout(t.Context(), files)
			if err != nil {
				t.Fatal(err)
			}
			layouts = append(layouts, l)
			decs = append(decs, d)
			if step == 2 {
				if _, err := s.global.Engine.TrainContext(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
		}
		return layouts, decs
	}
	l1, d1 := run(1)
	l4, d4 := run(4)
	if !reflect.DeepEqual(l1, l4) {
		t.Fatalf("layout trajectories diverged across Parallelism:\n  serial   %v\n  parallel %v", l1, l4)
	}
	if !reflect.DeepEqual(d1, d4) {
		t.Fatal("decision trajectories diverged across Parallelism")
	}
}

// TestShardedRouting checks the file→shard routing contract: files are
// decided by the shard owning their current device (its engine only
// scores in-shard candidates), and a file on a device no shard owns is
// an error, not a silent skip. With pruning on, a shard engine ranks the
// cluster-wide device summaries but shortlists only its own devices.
func TestShardedRouting(t *testing.T) {
	db := seedDB(t, 1200)
	cfg := quickCfg()
	cfg.Epsilon = 0 // greedy only: every choice comes from in-shard scores
	s := shardedBluesky(t, db, 3, cfg)
	reg := telemetry.NewRegistry()
	s.SetMetrics(reg)

	// Bluesky into 3 shards: [file0, pic], [people, tmp], [var, USBtmp].
	files := []policy.FileInfo{
		{ID: 1, Path: "/a", Size: 1e8, Device: "pic"},
		{ID: 2, Path: "/b", Size: 1e8, Device: "tmp"},
		{ID: 3, Path: "/c", Size: 1e8, Device: "USBtmp"},
	}
	_, dec, err := s.DecideLayout(t.Context(), files)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(files) {
		t.Fatalf("decided %d files, want %d", len(dec), len(files))
	}
	owners := map[int64]int{1: 0, 2: 1, 3: 2}
	for k, d := range dec {
		// The owning shard's engine scores the file on every one of its own
		// devices and on nothing else.
		u := s.units[owners[d.FileID]]
		_, _, scores, err := u.engine.proposeScored(t.Context(), files[k:k+1])
		if err != nil {
			t.Fatal(err)
		}
		if len(scores[0]) != len(u.engine.devices) {
			t.Errorf("file %d (shard %d) scored on %d devices %v, want the shard's %d",
				d.FileID, owners[d.FileID], len(scores[0]), scores[0], len(u.engine.devices))
		}
		for dev := range scores[0] {
			if owner, ok := s.devShard[dev]; !ok || owner != owners[d.FileID] {
				t.Errorf("file %d (shard %d) scored out-of-shard device %q", d.FileID, owners[d.FileID], dev)
			}
		}
		// Migration may still move it out of shard (escalation), but a
		// greedy non-escalated choice stays in-shard; either way the choice
		// must be a real device.
		if _, ok := s.devShard[d.Chosen]; !ok {
			t.Errorf("file %d placed on unknown device %q", d.FileID, d.Chosen)
		}
	}
	for i := 0; i < 3; i++ {
		if got := shardCounter(reg, telemetry.MetricShardDecisions, i); got != 1 {
			t.Errorf("shard %d decisions = %d, want 1", i, got)
		}
	}

	if _, _, err := s.DecideLayout(t.Context(), []policy.FileInfo{{ID: 9, Device: "nosuch"}}); err == nil {
		t.Error("file on an unowned device should error")
	}

	// Top-1 still shortlists each shard's whole group: the cluster is fresh,
	// so every device is never-probed (DeviceSummary.Nominal), and
	// never-probed devices are shortlisted whatever their rank.
	cfg.TopK = 1
	pruned := shardedBluesky(t, db, 3, cfg)
	for i, u := range pruned.units {
		var names []string
		for _, j := range u.engine.deviceShortlist() {
			names = append(names, u.engine.devices[j])
		}
		if !reflect.DeepEqual(names, u.engine.devices) {
			t.Errorf("shard %d shortlists %v, want its group %v", i, names, u.engine.devices)
		}
	}
}

// TestShardedEscalation pins the cross-shard escalation rule and its
// admission check: an in-shard choice predicted far below the global
// digest escalates and migrates when the digest device can cover the
// file, is counted-but-kept when the device cannot, and never
// fires for exploration decisions or digests the shard already owns.
func TestShardedEscalation(t *testing.T) {
	db := seedDB(t, 1200)
	s := shardedBluesky(t, db, 2, quickCfg())
	reg := telemetry.NewRegistry()
	s.SetMetrics(reg)
	escalations := func(i int) uint64 { return shardCounter(reg, telemetry.MetricShardEscalations, i) }
	migrations := func(i int) uint64 { return shardCounter(reg, telemetry.MetricShardMigrations, i) }

	digest := s.throughputDigest()
	if digest == nil {
		t.Fatal("no throughput digest on a healthy cluster")
	}
	if digest.Name != "file0" {
		t.Fatalf("digest = %q, want the fastest device file0", digest.Name)
	}
	if s.devShard[digest.Name] != 0 {
		t.Fatalf("digest device owned by shard %d, fixture wants 0", s.devShard[digest.Name])
	}

	// Far-underperforming choice in shard 1: escalates and migrates.
	d := policy.Prediction{FileID: 1, Current: "tmp", Chosen: "tmp",
		Predicted: digest.RecentThroughput / 10}
	s.escalate(1, &d, digest, 1e6, map[string]int64{})
	if d.Chosen != digest.Name {
		t.Fatalf("underperforming choice not escalated: chosen %q", d.Chosen)
	}
	if escalations(1) != 1 || migrations(0) != 1 {
		t.Fatalf("counters after migration: escalations=%d migrations=%d, want 1/1", escalations(1), migrations(0))
	}

	// A file the digest device cannot cover: escalation is counted, the
	// admission check fails, and the in-shard choice survives — nothing
	// was claimed or committed anywhere.
	huge := s.cluster.Device(digest.Name).Free() + 1
	d = policy.Prediction{FileID: 2, Current: "tmp", Chosen: "tmp",
		Predicted: digest.RecentThroughput / 10}
	claims := map[string]int64{}
	s.escalate(1, &d, digest, huge, claims)
	if d.Chosen != "tmp" {
		t.Fatalf("refused escalation still moved the file to %q", d.Chosen)
	}
	if escalations(1) != 2 || migrations(0) != 1 {
		t.Fatalf("counters after refused escalation: escalations=%d migrations=%d, want 2/1", escalations(1), migrations(0))
	}
	if len(claims) != 0 {
		t.Fatalf("refused escalation claimed %v", claims)
	}

	// Exploration decisions probe, they do not escalate.
	d = policy.Prediction{FileID: 3, Current: "tmp", Chosen: "tmp", Random: true,
		Predicted: digest.RecentThroughput / 10}
	s.escalate(1, &d, digest, 1e6, map[string]int64{})
	if d.Chosen != "tmp" || escalations(1) != 2 {
		t.Error("exploration decision escalated")
	}

	// A digest the deciding shard already owns is not an escalation.
	d = policy.Prediction{FileID: 4, Current: "pic", Chosen: "pic",
		Predicted: digest.RecentThroughput / 10}
	s.escalate(0, &d, digest, 1e6, map[string]int64{})
	if d.Chosen != "pic" || escalations(0) != 0 {
		t.Error("in-shard digest treated as cross-shard escalation")
	}

	// A choice within escalationFactor of the digest stays put.
	d = policy.Prediction{FileID: 5, Current: "tmp", Chosen: "tmp",
		Predicted: digest.RecentThroughput / 2}
	s.escalate(1, &d, digest, 1e6, map[string]int64{})
	if d.Chosen != "tmp" || escalations(1) != 2 {
		t.Error("adequately served choice escalated")
	}

	// A choice the model did not score (Predicted 0) has nothing to compare
	// against the digest and stays put.
	d = policy.Prediction{FileID: 6, Current: "tmp", Chosen: "tmp"}
	s.escalate(1, &d, digest, 1e6, map[string]int64{})
	if d.Chosen != "tmp" || escalations(1) != 2 {
		t.Error("unscored choice escalated")
	}
}

// TestShardedEscalationClaims pins the admission accounting of one cycle's
// escalations: two escalations to one device are both admitted while
// their claims fit it, the one that would overfill it is refused, claims
// never touch used bytes, a fresh cycle's claims admit again, and a
// read-only device admits nothing.
func TestShardedEscalationClaims(t *testing.T) {
	db := seedDB(t, 1200)
	s := shardedBluesky(t, db, 2, quickCfg())
	digest := s.throughputDigest()
	if digest == nil || s.devShard[digest.Name] != 0 {
		t.Fatalf("digest %v, fixture wants a device of shard 0", digest)
	}
	dev := s.cluster.Device(digest.Name)
	free, used := dev.Free(), dev.Used()
	escalated := func(claims map[string]int64, id int64, size int64) bool {
		d := policy.Prediction{FileID: id, Current: "tmp", Chosen: "tmp",
			Predicted: digest.RecentThroughput / 10}
		s.escalate(1, &d, digest, size, claims)
		return d.Chosen == digest.Name
	}

	claims := map[string]int64{}
	if !escalated(claims, 1, free-10) {
		t.Fatal("first escalation refused")
	}
	if !escalated(claims, 2, 10) {
		t.Fatal("second escalation refused though the claims fit the device exactly")
	}
	if escalated(claims, 3, 1) {
		t.Fatal("escalation admitted past the device's free bytes")
	}
	if claims[digest.Name] != free {
		t.Fatalf("claims = %d, want the two admitted sizes %d", claims[digest.Name], free)
	}
	if dev.Used() != used {
		t.Fatalf("claims changed used bytes: %d → %d", used, dev.Used())
	}
	if !escalated(map[string]int64{}, 3, 1) {
		t.Fatal("a fresh cycle refused an escalation that fits")
	}
	// A device gone read-only takes no escalation, however small.
	if err := s.cluster.SetReadOnly(digest.Name, true); err != nil {
		t.Fatal(err)
	}
	if escalated(map[string]int64{}, 4, 0) {
		t.Fatal("escalation admitted onto a read-only device")
	}
}

// TestShardedRowsObservedOncePerCycle: a decide cycle reports the rows
// every shard scored as one observation of the inference batch-size
// histogram — not one per shard, and at one shard, where the unit's engine
// is the global engine, not twice.
func TestShardedRowsObservedOncePerCycle(t *testing.T) {
	db := seedDB(t, 1200)
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			s := shardedBluesky(t, db, n, quickCfg())
			reg := telemetry.NewRegistry()
			s.global.Engine.SetMetrics(reg)
			s.SetMetrics(reg)

			hist := reg.Histogram(telemetry.MetricInferenceBatchSize, telemetry.DefBatchSizeBuckets)
			const cycles = 5
			files := testFiles()
			for i := 0; i < cycles; i++ {
				if _, _, err := s.DecideLayout(t.Context(), files); err != nil {
					t.Fatal(err)
				}
			}
			if got := hist.Count(); got != cycles {
				t.Fatalf("rows observed %d times over %d cycles, want once per cycle", got, cycles)
			}
			// Every cycle scores the full working set: files × in-shard
			// devices summed over shards.
			perFile := len(s.cluster.DeviceNames()) / n
			if want := float64(cycles * len(files) * perFile); hist.Sum() != want {
				t.Errorf("rows scored = %v, want %v", hist.Sum(), want)
			}
			// The per-shard counters registered on the same registry.
			if got := reg.Counter(telemetry.MetricShardDecisions, telemetry.L("shard", "0")).Value(); got == 0 {
				t.Error("per-shard decision counter never incremented")
			}
		})
	}
}

// TestShardedStateRoundTrip checks bit-identical resume of the whole
// coordinator: shard engines (RNG streams, pruning bookkeeping), shard
// accounting, and the global engine with the model every shard scores
// through restore into a fresh coordinator that continues the exact
// trajectory. A snapshot from a different partition width is rejected.
func TestShardedStateRoundTrip(t *testing.T) {
	db := seedDB(t, 1200)
	cfg := quickCfg()
	cfg.Epsilon = 0.3
	a := shardedBluesky(t, db, 2, cfg)

	files := testFiles()
	for i := 0; i < 3; i++ {
		if _, _, err := a.DecideLayout(t.Context(), files); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := a.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	ga, err := a.global.Engine.State()
	if err != nil {
		t.Fatal(err)
	}

	b, err := NewSharded(db, storagesim.NewBluesky(1), 2, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.global.Engine.RestoreState(ga); err != nil {
		t.Fatal(err)
	}
	if err := b.UnmarshalState(blob); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		la, da, err := a.DecideLayout(t.Context(), files)
		if err != nil {
			t.Fatal(err)
		}
		lb, dbDec, err := b.DecideLayout(t.Context(), files)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(la, lb) {
			t.Fatalf("step %d: restored layout %v != original %v", i, lb, la)
		}
		if !reflect.DeepEqual(da, dbDec) {
			t.Fatalf("step %d: restored decisions diverged", i)
		}
		if i == 1 {
			if _, err := a.global.Engine.TrainContext(context.Background()); err != nil {
				t.Fatal(err)
			}
			if _, err := b.global.Engine.TrainContext(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Partition-width mismatch is rejected loudly.
	c, err := NewSharded(db, storagesim.NewBluesky(1), 3, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.UnmarshalState(blob); err == nil {
		t.Error("restoring a 2-shard snapshot into a 3-shard coordinator should fail")
	}
}

// shardedSnapshot decides three times on a two-shard coordinator and
// returns it with its policy blob and its global engine's state.
func shardedSnapshot(t *testing.T, db TelemetryStore, cfg Config) (*Sharded, []byte, EngineState) {
	t.Helper()
	a := shardedBluesky(t, db, 2, cfg)
	for i := 0; i < 3; i++ {
		if _, _, err := a.DecideLayout(t.Context(), testFiles()); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := a.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	ga, err := a.global.Engine.State()
	if err != nil {
		t.Fatal(err)
	}
	return a, blob, ga
}

// TestShardedRestoreAllOrNothing: a coordinator blob refused at a later
// unit leaves every earlier shard engine as it was — every unit is checked
// before any stream is restored.
func TestShardedRestoreAllOrNothing(t *testing.T) {
	db := seedDB(t, 1200)
	_, blob, _ := shardedSnapshot(t, db, quickCfg())
	for name, corrupt := range map[string]func(*shardedState){
		"no engine state": func(st *shardedState) { st.Units[1].Engine = nil },
	} {
		t.Run(name, func(t *testing.T) {
			var st shardedState
			if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&st); err != nil {
				t.Fatal(err)
			}
			corrupt(&st)
			var bad bytes.Buffer
			if err := gob.NewEncoder(&bad).Encode(st); err != nil {
				t.Fatal(err)
			}
			b := shardedBluesky(t, db, 2, quickCfg())
			eng := b.units[0].engine
			rngBefore, countBefore := eng.rng.State(), eng.decisionCount
			if err := b.UnmarshalState(bad.Bytes()); err == nil {
				t.Fatal("UnmarshalState accepted a blob with a bad unit 1")
			}
			if eng.rng.State() != rngBefore || eng.decisionCount != countBefore {
				t.Errorf("refused restore moved shard 0: RNG %x → %x, decisions %d → %d",
					rngBefore, eng.rng.State(), countBefore, eng.decisionCount)
			}
		})
	}
}

// TestShardedRestoreParentBlob: a blob whose units each carry a full
// EngineState, network included — the form coordinators wrote while every
// shard engine held its own copy of the model — restores, and the
// coordinator decides from it exactly as from the current form.
func TestShardedRestoreParentBlob(t *testing.T) {
	db := seedDB(t, 1200)
	cfg := quickCfg()
	cfg.Epsilon = 0.3
	a, blob, ga := shardedSnapshot(t, db, cfg)

	// The parent also wrote each unit's device group, which gob now drops.
	type parentShard struct {
		Index   int
		Devices []string
	}
	type parentUnit struct {
		Engine *EngineState
		Shard  parentShard
	}
	parent := struct {
		Shards int
		Units  []parentUnit
	}{Shards: len(a.units)}
	for i := range a.units {
		es, err := a.units[i].engine.State()
		if err != nil {
			t.Fatal(err)
		}
		if len(es.Net) == 0 {
			t.Fatal("parent-form unit carries no network")
		}
		group := parentShard{Index: i, Devices: a.units[i].engine.devices}
		parent.Units = append(parent.Units, parentUnit{Engine: &es, Shard: group})
	}
	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(parent); err != nil {
		t.Fatal(err)
	}

	restore := func(data []byte) *Sharded {
		s, err := NewSharded(db, storagesim.NewBluesky(1), 2, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.global.Engine.RestoreState(ga); err != nil {
			t.Fatal(err)
		}
		if err := s.UnmarshalState(data); err != nil {
			t.Fatal(err)
		}
		return s
	}
	// Both restores continue the uninterrupted coordinator's decisions.
	runs := []*Sharded{a, restore(old.Bytes()), restore(blob)}
	for i := 0; i < 4; i++ {
		var decs [3][]policy.Prediction
		for k, s := range runs {
			var err error
			if _, decs[k], err = s.DecideLayout(t.Context(), testFiles()); err != nil {
				t.Fatal(err)
			}
			if i == 1 {
				if _, err := s.global.Engine.TrainContext(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
		}
		if !reflect.DeepEqual(decs[1], decs[2]) {
			t.Fatalf("step %d: the parent-form restore decided %v, the current-form one %v", i, decs[1], decs[2])
		}
		if !reflect.DeepEqual(decs[0], decs[2]) {
			t.Fatalf("step %d: the restores decided %v, the original %v", i, decs[2], decs[0])
		}
	}
}

// shardedWarehouse builds a coordinator over nDev synthetic devices in
// eight hardware classes (mirroring the warehouse fixture at repo root)
// with one seeded access per file, trained and ready to decide.
func shardedWarehouse(tb testing.TB, nFiles, nDev, shards int, cfg Config) (*Sharded, []policy.FileInfo) {
	tb.Helper()
	profiles := make([]storagesim.DeviceProfile, nDev)
	speeds := make([]float64, nDev)
	for i := range profiles {
		class := i % 8
		speeds[i] = float64(8-class)*1e9 + float64(i/8)*3e7
		profiles[i] = storagesim.DeviceProfile{
			Name:     fmt.Sprintf("dev%03d", i),
			Class:    fmt.Sprintf("class%d", class),
			ReadBW:   speeds[i],
			WriteBW:  speeds[i],
			Capacity: 1e13,
		}
	}
	cluster, err := storagesim.NewCluster(profiles, storagesim.Config{Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	db, err := replaydb.Open(replaydb.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	r := rng.New(31)
	files := make([]policy.FileInfo, nFiles)
	for i := range files {
		id := int64(i + 1)
		dev := r.Intn(nDev)
		files[i] = policy.FileInfo{
			ID:     id,
			Path:   fmt.Sprintf("/wh/f%04d", i),
			Size:   int64(1e8 + r.Float64()*4e8),
			Device: profiles[dev].Name,
		}
		if _, err := db.AppendAccess(replaydb.AccessRecord{
			Time:       float64(i + 1),
			FileID:     id,
			Device:     profiles[dev].Name,
			BytesRead:  int64(1e8 + r.Float64()*9e8),
			OpenTS:     int64(i + 1),
			CloseTS:    int64(i + 1),
			CloseTMS:   500,
			Throughput: speeds[dev] * (0.7 + 0.6*r.Float64()),
		}); err != nil {
			tb.Fatal(err)
		}
	}
	s, err := NewSharded(db, cluster, shards, nil, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := s.global.Engine.TrainContext(context.Background()); err != nil {
		tb.Fatal(err)
	}
	return s, files
}

// TestShardedSpeedup is the headline acceptance check of the sharded
// plane: at 4096 files × 256 devices, a 16-shard coordinator must decide
// at least 4× faster than the unsharded engine over the same population.
// The win is structural — each file is scored only against its shard's
// 16 devices, a 16× row reduction.
func TestShardedSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("warehouse-scale timing in -short mode")
	}
	const (
		nFiles = 4096
		nDev   = 256
		reps   = 2
	)
	cfg := Config{Epochs: 4, WindowX: 400, Seed: 31, Epsilon: 0.05, Parallelism: 4}
	measure := func(shards int) time.Duration {
		s, files := shardedWarehouse(t, nFiles, nDev, shards, cfg)
		if _, _, err := s.DecideLayout(t.Context(), files); err != nil { // warm buffers
			t.Fatal(err)
		}
		start := time.Now()
		for i := 0; i < reps; i++ {
			if _, _, err := s.DecideLayout(t.Context(), files); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start) / reps
	}
	flat := measure(1)
	sharded := measure(16)
	ratio := float64(flat) / float64(sharded)
	t.Logf("unsharded %v/op, 16-shard %v/op: %.1fx", flat, sharded, ratio)
	if ratio < 4 {
		t.Errorf("sharded decisions only %.1fx faster than unsharded, want ≥ 4x", ratio)
	}
}
