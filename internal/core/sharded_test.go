package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"testing"
	"time"

	"geomancy/internal/nn"
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
// retrains, a file on a device no shard owns included: both score it on
// the shortlist alone.
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

	files := append(testFiles(), policy.FileInfo{ID: 99, Path: "/elsewhere", Size: 3e8, Device: "nosuch"})
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
// decided by the shard owning their current device (which scores only
// in-shard candidates), and a file on a device no shard owns is an error,
// not a silent skip. With pruning on, a shard's shortlist comes from the
// cluster-wide device summaries but lists only its own devices.
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
		// The owning shard scores the file on every one of its own
		// devices and on nothing else.
		u := s.global.units[owners[d.FileID]]
		_, _, scores, err := s.global.unitModel(owners[d.FileID]).proposeScored(t.Context(), files[k:k+1])
		if err != nil {
			t.Fatal(err)
		}
		if len(scores[0]) != len(u.devs) {
			t.Errorf("file %d (shard %d) scored on %d devices %v, want the shard's %d",
				d.FileID, owners[d.FileID], len(scores[0]), scores[0], len(u.devs))
		}
		for dev := range scores[0] {
			if owner, ok := s.global.shardOf(dev); !ok || owner != owners[d.FileID] {
				t.Errorf("file %d (shard %d) scored out-of-shard device %q", d.FileID, owners[d.FileID], dev)
			}
		}
		// Migration may still move it out of shard (escalation), but a
		// greedy non-escalated choice stays in-shard; either way the choice
		// must be a real device.
		if _, ok := s.global.shardOf(d.Chosen); !ok {
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
	pruned.global.shortlist()
	for i, u := range pruned.global.units {
		if !reflect.DeepEqual(u.short, u.devs) {
			t.Errorf("shard %d shortlists %v, want its group %v", i, u.short, u.devs)
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

	digest := s.global.throughputDigest()
	if digest == nil {
		t.Fatal("no throughput digest on a healthy cluster")
	}
	if digest.Name != "file0" {
		t.Fatalf("digest = %q, want the fastest device file0", digest.Name)
	}
	if owner, _ := s.global.shardOf(digest.Name); owner != 0 {
		t.Fatalf("digest device owned by shard %d, fixture wants 0", owner)
	}

	// Far-underperforming choice in shard 1: escalates and migrates.
	d := policy.Prediction{FileID: 1, Current: "tmp", Chosen: "tmp",
		Predicted: digest.RecentThroughput / 10}
	s.global.escalate(1, &d, digest, 1e6, map[string]int64{})
	if d.Chosen != digest.Name {
		t.Fatalf("underperforming choice not escalated: chosen %q", d.Chosen)
	}
	if escalations(1) != 1 || migrations(0) != 1 {
		t.Fatalf("counters after migration: escalations=%d migrations=%d, want 1/1", escalations(1), migrations(0))
	}

	// A file the digest device cannot cover: escalation is counted, the
	// admission check fails, and the in-shard choice survives — nothing
	// was claimed or committed anywhere.
	huge := s.global.cluster.Device(digest.Name).Free() + 1
	d = policy.Prediction{FileID: 2, Current: "tmp", Chosen: "tmp",
		Predicted: digest.RecentThroughput / 10}
	claims := map[string]int64{}
	s.global.escalate(1, &d, digest, huge, claims)
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
	s.global.escalate(1, &d, digest, 1e6, map[string]int64{})
	if d.Chosen != "tmp" || escalations(1) != 2 {
		t.Error("exploration decision escalated")
	}

	// A digest the deciding shard already owns is not an escalation.
	d = policy.Prediction{FileID: 4, Current: "pic", Chosen: "pic",
		Predicted: digest.RecentThroughput / 10}
	s.global.escalate(0, &d, digest, 1e6, map[string]int64{})
	if d.Chosen != "pic" || escalations(0) != 0 {
		t.Error("in-shard digest treated as cross-shard escalation")
	}

	// A choice within escalationFactor of the digest stays put.
	d = policy.Prediction{FileID: 5, Current: "tmp", Chosen: "tmp",
		Predicted: digest.RecentThroughput / 2}
	s.global.escalate(1, &d, digest, 1e6, map[string]int64{})
	if d.Chosen != "tmp" || escalations(1) != 2 {
		t.Error("adequately served choice escalated")
	}

	// A choice the model did not score (Predicted 0) has nothing to compare
	// against the digest and stays put.
	d = policy.Prediction{FileID: 6, Current: "tmp", Chosen: "tmp"}
	s.global.escalate(1, &d, digest, 1e6, map[string]int64{})
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
	digest := s.global.throughputDigest()
	if digest == nil {
		t.Fatal("no throughput digest on a healthy cluster")
	}
	if owner, _ := s.global.shardOf(digest.Name); owner != 0 {
		t.Fatalf("digest %v, fixture wants a device of shard 0", digest)
	}
	dev := s.global.cluster.Device(digest.Name)
	free, used := dev.Free(), dev.Used()
	escalated := func(claims map[string]int64, id int64, size int64) bool {
		d := policy.Prediction{FileID: id, Current: "tmp", Chosen: "tmp",
			Predicted: digest.RecentThroughput / 10}
		s.global.escalate(1, &d, digest, size, claims)
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
	if err := s.global.cluster.SetReadOnly(digest.Name, true); err != nil {
		t.Fatal(err)
	}
	if escalated(map[string]int64{}, 4, 0) {
		t.Fatal("escalation admitted onto a read-only device")
	}
}

// TestShardedRowsObservedOncePerCycle: a decide cycle reports the rows
// every shard scored as one observation of the inference batch-size
// histogram — not one per shard, and at one shard, where the bridge is the
// lone engine's, not twice.
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
			perFile := len(s.global.cluster.DeviceNames()) / n
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
// coordinator: the shards' RNG streams, and the engine with the model
// every shard scores through and its pruning bookkeeping, restore into a
// fresh coordinator that continues the exact trajectory. A snapshot from a different partition width is rejected.
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
// returns it with its policy blob and its engine's state.
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

// TestShardedRestoreAllOrNothing: a coordinator blob refused for a wrong
// stream count leaves every shard's stream, and the engine's cadence, as
// they were — the blob is checked whole before any stream is restored.
func TestShardedRestoreAllOrNothing(t *testing.T) {
	db := seedDB(t, 1200)
	_, blob, _ := shardedSnapshot(t, db, quickCfg())
	for name, corrupt := range map[string]func(*shardedState){
		"a stream short": func(st *shardedState) { st.Streams = st.Streams[:1] },
		"a stream over":  func(st *shardedState) { st.Streams = append(st.Streams, 7) },
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
			before, countBefore := streams(b), b.global.Engine.decisionCount
			if err := b.UnmarshalState(bad.Bytes()); !errors.Is(err, policy.ErrBadState) {
				t.Fatalf("UnmarshalState of a blob with %d streams for 2 shards: err %v, want policy.ErrBadState", len(st.Streams), err)
			}
			if got := streams(b); !reflect.DeepEqual(got, before) || b.global.Engine.decisionCount != countBefore {
				t.Errorf("refused restore moved a stream or the cadence: streams %x → %x, decisions %d → %d",
					before, got, countBefore, b.global.Engine.decisionCount)
			}
		})
	}
}

// streams returns every unit's stream state, in shard order.
func streams(s *Sharded) []uint64 {
	var out []uint64
	for _, u := range s.global.units {
		out = append(out, u.rng.State())
	}
	return out
}

// TestShardedRestoreParentBlob: a blob of either form coordinators wrote
// while every shard kept its own engine — one unit per shard carrying a
// full EngineState, network included, or, later, only the shard engine's
// stream, cadence and watermark — is refused with policy.ErrBadState
// before any stream moves. Restored, either would resume a pruned run on
// the engine's cadence and watermark, which such a snapshot's engine half
// left at zero: another trajectory than the one it was taken from.
func TestShardedRestoreParentBlob(t *testing.T) {
	db := seedDB(t, 1200)
	cfg := quickCfg()
	cfg.Epsilon, cfg.TopK = 0.3, 2
	a, _, ga := shardedSnapshot(t, db, cfg)

	type parentShard struct {
		Index   int
		Devices []string
	}
	type fullUnit struct {
		Engine *EngineState
		Shard  parentShard
	}
	full := struct {
		Shards int
		Units  []fullUnit
	}{Shards: len(a.global.units)}
	type countedEngine struct {
		RNG           uint64
		DecisionCount uint64
		LastWatermark uint64
	}
	type countedUnit struct{ Engine *countedEngine }
	counted := struct {
		Shards int
		Units  []countedUnit
	}{Shards: len(a.global.units)}
	for i, u := range a.global.units {
		es := ga
		es.RNG = u.rng.State()
		if len(es.Net.Params) == 0 {
			t.Fatal("parent-form unit carries no network")
		}
		full.Units = append(full.Units, fullUnit{Engine: &es, Shard: parentShard{Index: i}})
		counted.Units = append(counted.Units, countedUnit{Engine: &countedEngine{
			RNG: u.rng.State(), DecisionCount: ga.DecisionCount, LastWatermark: ga.LastWatermark}})
	}
	for name, form := range map[string]any{"full engine per unit": full, "counters per unit": counted} {
		t.Run(name, func(t *testing.T) {
			var old bytes.Buffer
			if err := gob.NewEncoder(&old).Encode(form); err != nil {
				t.Fatal(err)
			}
			b, err := NewSharded(db, storagesim.NewBluesky(1), 2, nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			before := streams(b)
			if err := b.UnmarshalState(old.Bytes()); !errors.Is(err, policy.ErrBadState) {
				t.Fatalf("UnmarshalState of an older form: err %v, want policy.ErrBadState", err)
			}
			if got := streams(b); !reflect.DeepEqual(got, before) {
				t.Errorf("refused restore moved a stream: %x → %x", before, got)
			}
		})
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

// TestShardedInterleavedGroups pins the decisions of a coordinator whose
// device groups interleave — device i of the cluster's profile order in
// group i % 3 — so no group is a contiguous run of the engine's device
// indices. Over a small closed loop (layouts applied, a subset of files
// accessed between decisions, retrains), at ε 0.3 and TopK 1 with a full
// rescan every third decision, the decisions come back aligned with the
// input files, whose shards interleave too, and every decision's file,
// destination, exploration flag and predicted score hash, in input order,
// to a fixed digest: a shard's shortlist, exploration shuffle, random
// fallback, fsid feature and score slots all read its devices through
// whatever maps them to the model's device indices, so a wrong mapping
// moves the digest.
func TestShardedInterleavedGroups(t *testing.T) {
	const want = "dc4a93861d44ef3c"
	ctx := context.Background()
	cluster := storagesim.NewBluesky(1)
	index := make(map[string]int)
	for i, name := range cluster.DeviceNames() {
		index[name] = i
	}
	db, err := replaydb.Open(replaydb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	g := rng.New(17)
	var files []policy.FileInfo
	for i := 0; i < 24; i++ {
		f := policy.FileInfo{ID: int64(i + 1), Path: fmt.Sprintf("/il/%02d", i),
			Size: int64(5e7 + g.Float64()*3e8), Device: cluster.DeviceNames()[g.Intn(len(index))]}
		if err := cluster.PlaceFile(f.ID, f.Path, f.Size, f.Device); err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	access := func(run int, pick func(i int) bool) {
		for i, f := range files {
			if !pick(i) {
				continue
			}
			res, err := cluster.Access(f.ID, f.Size/2, int64(i%3)*f.Size/8)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := db.AppendAccess(replaydb.FromAccess(res, 0, run)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for run := 0; run < 8; run++ {
		access(run, func(int) bool { return true })
	}
	cfg := quickCfg()
	cfg.Epsilon, cfg.TopK, cfg.FullRescanEvery = 0.3, 1, 3
	s, err := NewSharded(db, cluster, 3, func(name string) int { return index[name] % 3 }, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for step := 0; step < 7; step++ {
		if step%3 == 0 {
			if _, err := s.Model().Engine.TrainContext(ctx); err != nil {
				t.Fatal(err)
			}
		}
		layout, decs, err := s.DecideLayout(ctx, files)
		if err != nil {
			t.Fatal(err)
		}
		if len(decs) != len(files) {
			t.Fatalf("step %d: %d decisions for %d files", step, len(decs), len(files))
		}
		for i, d := range decs {
			if d.FileID != files[i].ID {
				t.Fatalf("step %d: decision %d is file %d's, want input file %d's", step, i, d.FileID, files[i].ID)
			}
		}
		for _, d := range decs {
			fmt.Fprintf(h, "%d=%s/%t/%x;", d.FileID, d.Chosen, d.Random, math.Float64bits(d.Predicted))
		}
		for i := range files {
			if dst := layout[files[i].ID]; dst != files[i].Device {
				if _, err := cluster.Move(files[i].ID, dst); err == nil {
					files[i].Device = dst
				}
			}
		}
		access(8+step, func(i int) bool { return (i+step)%4 == 0 })
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
		t.Errorf("interleaved-group decisions hash to %s, want %s", got, want)
	}
}

// TestShardedStreamSkipsInitDraws: a shard's stream starts where the stream
// of an engine built for the shard began, past the draws initialising that
// engine's own network took, for every dense Table I model.
func TestShardedStreamSkipsInitDraws(t *testing.T) {
	for model := 1; model <= 11; model++ {
		cfg := Config{ModelNumber: model, Seed: 42}
		for i := 0; i < 3; i++ {
			r := rng.New(rng.Split(cfg.Seed, i))
			if _, err := nn.BuildModel(model, featureCount, r.Rand); err != nil {
				t.Fatal(err)
			}
			if got := shardStream(cfg, i).State(); got != r.State() {
				t.Errorf("model %d shard %d: stream starts at %x, a built engine's at %x", model, i, got, r.State())
			}
		}
	}
}
