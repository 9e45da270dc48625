package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"geomancy/internal/policy"
	"geomancy/internal/replaydb"
	"geomancy/internal/rng"
	"geomancy/internal/storagesim"
)

// blackoutStore is a ReplayDB whose device windows go dark on demand: a
// fit over it then finds no telemetry (ErrNoTelemetry), while the file
// windows, the dirty set and the watermark a decision's model-free half
// reads stay as they are. It counts the file windows read.
type blackoutStore struct {
	*replaydb.DB
	dark        bool
	byFileCalls int
}

func (b *blackoutStore) EachRecentByDevice(device string, n int, fn func(*replaydb.AccessRecord)) {
	if !b.dark {
		b.DB.EachRecentByDevice(device, n, fn)
	}
}

func (b *blackoutStore) RecentByDevice(device string, n int) []replaydb.AccessRecord {
	if b.dark {
		return nil
	}
	return b.DB.RecentByDevice(device, n)
}

func (b *blackoutStore) EachRecentByFile(id int64, n int, fn func(*replaydb.AccessRecord)) {
	b.byFileCalls++
	b.DB.EachRecentByFile(id, n, fn)
}

// overlapRig is one system the overlap tests drive: a policy over a lone
// engine or a coordinator over a synthetic 32-device warehouse in eight
// speed classes, its store and its working set. The policy drives the
// bridge through a bare policy.Model wrapper, as a tracer's timing
// decorator would.
type overlapRig struct {
	pol   policy.Policy
	m     *EngineModel
	wrap  *bareModel
	store *blackoutStore
	files []policy.FileInfo
	// step is the decision the synthetic device summaries describe.
	step int
}

const (
	overlapFiles   = 192
	overlapDevices = 32
)

// bareModel exposes only policy.Model's three calls of the bridge, keeps
// the predictions of the last proposal and counts the proposals.
type bareModel struct {
	m        *EngineModel
	preds    []policy.Prediction
	proposes int
}

func (b *bareModel) Retrain(ctx context.Context) error { return b.m.Retrain(ctx) }

func (b *bareModel) Update(ctx context.Context) error { return b.m.Update(ctx) }

func (b *bareModel) Propose(ctx context.Context, s policy.State) (map[int64]string, []policy.Prediction, error) {
	layout, preds, err := b.m.Propose(ctx, s)
	b.preds = preds
	b.proposes++
	return layout, preds, err
}

// newOverlapRig builds the rig for the named catalogue policy ("" is the
// default) at the given shard count (0: unsharded) and Parallelism: fits
// of three epochs each, and pruned decisions (TopK 3) with a full rescan
// every fourth, over device summaries that rotate with rig.step, so
// shortlists change and most files' current device is left off them.
func newOverlapRig(t *testing.T, name string, shards, par int) *overlapRig {
	t.Helper()
	profiles := make([]storagesim.DeviceProfile, overlapDevices)
	for i := range profiles {
		bw := float64(8-i%8) * 1e9
		profiles[i] = storagesim.DeviceProfile{
			Name: fmt.Sprintf("dev%02d", i), Class: fmt.Sprintf("class%d", i%8),
			ReadBW: bw, WriteBW: bw, Capacity: 1e13,
		}
	}
	cluster, err := storagesim.NewCluster(profiles, storagesim.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	db, err := replaydb.Open(replaydb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	r := &overlapRig{store: &blackoutStore{DB: db}}
	g := rng.New(5)
	for i := 0; i < overlapFiles; i++ {
		r.files = append(r.files, policy.FileInfo{
			ID: int64(i + 1), Size: int64(1e8 + g.Float64()*4e8),
			Device: profiles[g.Intn(overlapDevices)].Name,
		})
	}
	for i := 0; i < 3*overlapFiles; i++ {
		r.touch(t, i%overlapFiles, float64(i))
	}
	cfg := Config{Epochs: 3, FixedEpochs: true, WindowX: 60, Seed: 11, Epsilon: 0.1, TopK: 3, FullRescanEvery: 4, Parallelism: par}
	r.pol, r.m, err = BuildPolicy(r.store, cluster, name, shards, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.wrap = &bareModel{m: r.m}
	switch p := r.pol.(type) {
	case *Sharded:
		p.Geomancy.Model = r.wrap
	case *policy.Geomancy:
		p.Model = r.wrap
	case *policy.Online:
		p.Model = r.wrap
	}
	r.m.Engine.SetSummarySource(r.summaries)
	return r
}

// summaries ranks the devices by a speed that rotates with r.step.
func (r *overlapRig) summaries() []storagesim.DeviceSummary {
	out := make([]storagesim.DeviceSummary, overlapDevices)
	for i := range out {
		out[i] = storagesim.DeviceSummary{
			Name: fmt.Sprintf("dev%02d", i), Available: true,
			RecentThroughput: float64((i+3*r.step)%overlapDevices+1) * 1e8,
		}
	}
	return out
}

// touch appends one access of file i on its current device at time at.
func (r *overlapRig) touch(t *testing.T, i int, at float64) {
	t.Helper()
	f := r.files[i]
	if _, err := r.store.AppendAccess(replaydb.AccessRecord{
		Time: at, FileID: f.ID, Device: f.Device,
		BytesRead: 1e8 + int64(i)*3e6, BytesWritten: int64(i%5) * 2e7,
		OpenTS: int64(at), CloseTS: int64(at), CloseTMS: 250,
		Throughput: 1e9 + float64(i%8)*7e8 + at,
	}); err != nil {
		t.Fatal(err)
	}
}

// decide runs one decision of the rig's policy: prepared ahead as
// Loop.propose prepares it, so the model-free half may run beside the fit,
// or proposed whole after the fit, as a direct caller's is.
func (r *overlapRig) decide(ctx context.Context, prepared bool) (map[int64]string, []policy.Prediction, error) {
	s := policy.State{Files: r.files}
	if prepared {
		r.m.prepareAhead(s.Files)
		defer r.m.drop()
	}
	r.wrap.preds = nil
	layout, err := r.pol.Propose(ctx, s)
	return layout, r.wrap.preds, err
}

// state is the rig's marshalled engine and policy state.
func (r *overlapRig) state(t *testing.T) []byte {
	t.Helper()
	st, err := r.m.Engine.State()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	blob, err := r.pol.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	return append(buf.Bytes(), blob...)
}

// pruning is what the engine carries from one decision to the next: its
// cadence counter, its dirty watermark and its feature cache.
type pruning struct {
	count, watermark uint64
	cache            map[int64]fileCache
}

func (r *overlapRig) pruning() pruning { return pruningOf(r.m.Engine) }

// pruningOf copies what e carries from one decision to the next.
func pruningOf(e *Engine) pruning {
	p := pruning{count: e.decisionCount, watermark: e.lastWatermark, cache: map[int64]fileCache{}}
	for id, ent := range e.cache {
		p.cache[id] = *ent
	}
	return p
}

// reports drains the rig's training reports, wall time zeroed.
func (r *overlapRig) reports() []TrainReport {
	reps := r.m.Reports()
	for i := range reps {
		reps[i].Duration = 0
	}
	return reps
}

// goroutinesBack waits until no more than n goroutines run: a joined
// helper has signalled, but may not have returned yet.
func goroutinesBack(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the decision, %d before", runtime.NumGoroutine(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// The model-free half of a decision runs beside the fit at Parallelism > 1
// and changes nothing: policy.Geomancy over an unsharded engine and over a
// 4-shard coordinator, and policy.Online over an unsharded engine, each
// prepared ahead as the loop prepares it at Parallelism 1 and 4, decide
// every layout and prediction, report every fit and marshal every state
// exactly as the serial path (the policy's fit, then Propose, at
// Parallelism 1) does, over pruned decisions and full rescans. Online's
// incremental updates run beside the prepare as its retrains do, and its
// first proposal, restored past its first retrain onto an untrained
// engine, falls back from Update's ErrNotReady to a retrain. A fit
// cancelled after its first epoch and one that finds no telemetry return
// their error with the helper joined, and leave the cadence, the dirty
// watermark and the feature cache as the serial path leaves them, so the
// run goes on bit for bit; so does a decision whose fit completes and
// whose scoring is cancelled.
func TestOverlapMatchesSerial(t *testing.T) {
	const steps = 14
	const cancelAt, darkAt, scoreCancelAt = 5, 9, 11
	for _, tc := range []struct {
		name   string
		policy string
		shards int
	}{
		{"shards=0", "", 0},
		{"shards=4", "", 4},
		// Steps 3, 7 and 11 retrain in full and step 0 falls back to a
		// retrain; the rest update.
		{"online", "online-geomancy", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mk := func(par int) *overlapRig {
				r := newOverlapRig(t, tc.policy, tc.shards, par)
				if tc.policy == "online-geomancy" {
					// One proposal in: the first asks for an update.
					var blob bytes.Buffer
					if err := gob.NewEncoder(&blob).Encode(struct{ Calls int64 }{1}); err != nil {
						t.Fatal(err)
					}
					if err := r.pol.UnmarshalState(blob.Bytes()); err != nil {
						t.Fatal(err)
					}
				}
				return r
			}
			ref := mk(1)
			rigs := []struct {
				name     string
				r        *overlapRig
				prepared bool
			}{
				{"prepared/par=1", mk(1), true},
				{"prepared/par=4", mk(4), true},
				{"serial/par=4", mk(4), false},
			}
			fulls := 0
			for k := 0; k < steps; k++ {
				if ref.m.Engine.fullRescanDue() {
					fulls++
				}
				ctx := func() context.Context { return context.Background() }
				switch k {
				case cancelAt:
					ctx = func() context.Context { return &cancelAfter{Context: context.Background(), n: 1} }
				case scoreCancelAt:
					// The fit checks three times, once per epoch; scoring is
					// cancelled at its first check.
					ctx = func() context.Context { return &cancelAfter{Context: context.Background(), n: 3} }
				case darkAt:
					ref.store.dark = true
					for _, c := range rigs {
						c.r.store.dark = true
					}
				}
				ref.step, ref.store.byFileCalls = k, 0
				wantLayout, wantPreds, wantErr := ref.decide(ctx(), false)
				wantReports, wantPruning := ref.reports(), ref.pruning()
				for _, c := range rigs {
					c.r.step, c.r.store.byFileCalls = k, 0
					before := runtime.NumGoroutine()
					layout, preds, err := c.r.decide(ctx(), c.prepared)
					goroutinesBack(t, before)
					switch {
					case (k == cancelAt || k == scoreCancelAt) && !errors.Is(err, context.Canceled):
						t.Fatalf("%s step %d: cancelled fit returned %v, want context.Canceled", c.name, k, err)
					case k == darkAt && !errors.Is(err, ErrNoTelemetry):
						t.Fatalf("%s step %d: dark fit returned %v, want ErrNoTelemetry", c.name, k, err)
					case (err == nil) != (wantErr == nil):
						t.Fatalf("%s step %d: err %v, serial %v", c.name, k, err, wantErr)
					}
					if !reflect.DeepEqual(layout, wantLayout) || !reflect.DeepEqual(preds, wantPreds) {
						t.Fatalf("%s step %d: the decision differs from the serial one", c.name, k)
					}
					if got := c.r.reports(); !reflect.DeepEqual(got, wantReports) {
						t.Fatalf("%s step %d: reports %+v, serial %+v", c.name, k, got, wantReports)
					}
					if !reflect.DeepEqual(c.r.pruning(), wantPruning) {
						t.Fatalf("%s step %d: cadence, watermark or cache differs from the serial path's", c.name, k)
					}
					if got, want := c.r.state(t), ref.state(t); !bytes.Equal(got, want) {
						t.Fatalf("%s step %d: marshalled state differs from the serial path's", c.name, k)
					}
					if wantErr == nil && c.r.store.byFileCalls != ref.store.byFileCalls {
						t.Fatalf("%s step %d: read %d file windows, the serial path %d", c.name, k, c.r.store.byFileCalls, ref.store.byFileCalls)
					}
				}
				if wantErr != nil {
					ref.store.dark = false
					for _, c := range rigs {
						c.r.store.dark = false
					}
					continue
				}
				// The layout takes effect, and a third of the files see new
				// telemetry before the next decision.
				for _, r := range append([]*overlapRig{ref}, rigs[0].r, rigs[1].r, rigs[2].r) {
					for i := range r.files {
						r.files[i].Device = wantLayout[r.files[i].ID]
						if (i+k)%3 == 0 {
							r.touch(t, i, float64(10_000+100*k+i))
						}
					}
				}
			}
			if fulls < 2 {
				t.Fatalf("the run held %d full rescans, want the first and a cadence one", fulls)
			}
			// Every decision but the two whose fit failed commits.
			if ref.m.Engine.decisionCount != steps-2 {
				t.Fatalf("the serial engine committed %d decisions, want %d", ref.m.Engine.decisionCount, steps-2)
			}
		})
	}
}

// A sharded cycle scores every shard's runs in one fan-out and changes
// nothing: a 16-shard coordinator at Parallelism 1, 2 and 4, prepared
// beside the fit as the loop drives it, decides every layout and
// every prediction, Predicted included, and reports and marshals every
// state as a coordinator that scores and selects each shard's runs in a
// fan-out of their own does, over pruned decisions and two full rescans.
// Each shard reads its scores at its own offset into the cycle's
// score slice, greedy picks and explored files' Predicted alike, so a
// wrong or stale offset shows here.
func TestOneFanOutMatchesPerShard(t *testing.T) {
	const steps, shards = 10, 16
	ref := newOverlapRig(t, "", shards, 1)
	rigs := []*overlapRig{newOverlapRig(t, "", shards, 1), newOverlapRig(t, "", shards, 2), newOverlapRig(t, "", shards, 4)}
	ctx := context.Background()
	fulls, explored := 0, 0
	for k := 0; k < steps; k++ {
		if ref.m.Engine.fullRescanDue() {
			fulls++
		}
		ref.step = k
		if err := ref.m.Retrain(ctx); err != nil {
			t.Fatal(err)
		}
		ref.m.prepare(ref.files)
		wantLayout, wantPreds, err := ref.m.proposeShardByShard(ctx)
		if err != nil {
			t.Fatal(err)
		}
		wantReports, wantPruning, wantState := ref.reports(), ref.pruning(), ref.state(t)
		for _, d := range wantPreds {
			if d.Random && d.Predicted > 0 {
				explored++
			}
		}
		for _, r := range rigs {
			r.step = k
			par := r.m.Engine.cfg.Parallelism
			layout, preds, err := r.decide(ctx, true)
			if err != nil {
				t.Fatalf("parallelism %d step %d: %v", par, k, err)
			}
			if !reflect.DeepEqual(layout, wantLayout) || len(preds) != len(wantPreds) {
				t.Fatalf("parallelism %d step %d: the layout differs from the shard-by-shard one", par, k)
			}
			for i, d := range preds {
				w := wantPreds[i]
				if d.FileID != w.FileID || d.Chosen != w.Chosen || d.Random != w.Random || math.Float64bits(d.Predicted) != math.Float64bits(w.Predicted) {
					t.Fatalf("parallelism %d step %d: decision %d is %+v, shard by shard %+v", par, k, i, d, w)
				}
			}
			if !reflect.DeepEqual(r.reports(), wantReports) || !reflect.DeepEqual(r.pruning(), wantPruning) || !bytes.Equal(r.state(t), wantState) {
				t.Fatalf("parallelism %d step %d: reports, pruning or marshalled state differ from the shard-by-shard path's", par, k)
			}
		}
		for _, r := range append([]*overlapRig{ref}, rigs...) {
			for i := range r.files {
				r.files[i].Device = wantLayout[r.files[i].ID]
				if (i+k)%3 == 0 {
					r.touch(t, i, float64(10_000+100*k+i))
				}
			}
		}
	}
	if fulls < 3 {
		t.Fatalf("the run held %d full rescans, want the first and two cadence ones", fulls)
	}
	if explored == 0 {
		t.Fatal("no explored file carried a prediction; the test cannot see the offsets")
	}
}

// A cadence rescan keeps every entry it refreshed: the clean decision that
// follows reads no file window.
func TestRescanKeepsCleanEntries(t *testing.T) {
	for _, shards := range []int{0, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			r := newOverlapRig(t, "", shards, 4)
			ctx := context.Background()
			for k := 0; k < 6; k++ {
				r.step, r.store.byFileCalls = k, 0
				full := r.m.Engine.fullRescanDue()
				if _, _, err := r.decide(ctx, true); err != nil {
					t.Fatal(err)
				}
				if !full && r.store.byFileCalls != 0 {
					t.Fatalf("pruned decision %d read %d file windows with no new telemetry", k, r.store.byFileCalls)
				}
			}
		})
	}
}

// preparedAllocs is what one steady-state decision over the 4-shard
// warehouse of TestDecisionAllocations allocates, in objects: prepared
// ahead as the loop prepares it, on the helper at Parallelism 4, and
// finished by Propose, after two decisions that size the reusable buffers,
// the retrain left out. It is the least of three readings: a goroutine the
// decision starts before the last one's has exited takes a fresh
// descriptor, which a loaded machine shows now and then.
func preparedAllocs(t *testing.T, shards int) float64 {
	t.Helper()
	cfg := Config{Epochs: 2, WindowX: 100, Seed: 31, Epsilon: 0.05, TopK: 2, FullRescanEvery: 1 << 20, Parallelism: 4}
	s, files := shardedWarehouse(t, 256, 32, shards, cfg)
	m, st := s.Model(), policy.State{Files: files}
	decide := func() {
		m.prepareAhead(st.Files)
		defer m.drop()
		if _, _, err := m.Propose(context.Background(), st); err != nil {
			t.Fatal(err)
		}
	}
	decide()
	decide()
	least := testing.AllocsPerRun(10, decide)
	for i := 0; i < 2; i++ {
		least = min(least, testing.AllocsPerRun(10, decide))
	}
	return least
}

// A decision prepared ahead allocates no more than it did when this test
// last pinned it (Go 1.24: 29 objects at one unit, 45 at four, the helper
// goroutine and its channel included): every unit's task list is cut from
// one array, the device summaries are read and ranked once for every unit,
// nothing per device or per pairing is cloned for the overlap, the working
// set is never copied and the decisions are one slice aligned with it.
func TestPreparedDecisionAllocations(t *testing.T) {
	for _, tc := range []struct {
		shards int
		max    float64
	}{{1, 29}, {4, 45}} {
		got := preparedAllocs(t, tc.shards)
		t.Logf("%d shards: %.0f objects", tc.shards, got)
		if got > tc.max {
			t.Errorf("%d shards: a prepared decision allocates %.0f objects, pinned at %.0f", tc.shards, got, tc.max)
		}
	}
}
