package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"geomancy/internal/policy"
	"geomancy/internal/replaydb"
	"geomancy/internal/storagesim"
	"geomancy/internal/trace"
	"geomancy/internal/workload"
)

// rendezvousWait bounds how long either side of watchedStore's rendezvous
// waits for the other; a decision that never overlaps waits it once.
const rendezvousWait = 5 * time.Second

// watchedStore is a TelemetryStore over a ReplayDB that logs, with the
// fitWatch model above it, the order in which a decision's parts ran. It
// reads through copies (no window walker, no change tracking), so every
// file window the decision's prepare gathers is a RecentByFile call. In
// rendezvous mode the first file window read waits for the fit to begin,
// and the fit waits for that read, logged before the fit is let go: both
// return at once only if the read is issued while Retrain runs.
type watchedStore struct {
	db         *replaydb.DB
	rendezvous bool

	mu       sync.Mutex
	log      []string
	fileRead bool
	// fitStarted is closed when Retrain begins, read when a file window is
	// read with the fit under way.
	fitStarted, read chan struct{}
}

func (s *watchedStore) note(ev string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log = append(s.log, ev)
}

// reset starts a new decision's log.
func (s *watchedStore) reset() {
	s.log, s.fileRead = nil, false
	s.fitStarted, s.read = make(chan struct{}), make(chan struct{})
}

func (s *watchedStore) RecentByDevice(device string, n int) []replaydb.AccessRecord {
	return s.db.RecentByDevice(device, n)
}

func (s *watchedStore) RecentByFile(id int64, n int) []replaydb.AccessRecord {
	s.mu.Lock()
	first := !s.fileRead
	s.fileRead = true
	s.mu.Unlock()
	if !first {
		return s.db.RecentByFile(id, n)
	}
	if s.rendezvous {
		select {
		case <-s.fitStarted:
		case <-time.After(rendezvousWait):
		}
	}
	s.note("file window")
	if s.rendezvous {
		close(s.read)
	}
	return s.db.RecentByFile(id, n)
}

// fitWatch is a policy.Model exposing only the bridge's three calls, the
// shape of a tracer's timing wrapper, that logs each into its store.
type fitWatch struct {
	m     *EngineModel
	store *watchedStore
	// overlapped reports whether the last Retrain saw a file window read
	// while it ran (rendezvous mode).
	overlapped bool
}

func (w *fitWatch) Retrain(ctx context.Context) error {
	w.store.note("retrain")
	if w.store.rendezvous {
		close(w.store.fitStarted)
		select {
		case <-w.store.read:
			w.overlapped = true
		case <-time.After(rendezvousWait):
		}
	}
	return w.m.Retrain(ctx)
}

func (w *fitWatch) Update(ctx context.Context) error { return w.m.Update(ctx) }

func (w *fitWatch) Propose(ctx context.Context, s policy.State) (map[int64]string, []policy.Prediction, error) {
	w.store.note("propose")
	return w.m.Propose(ctx, s)
}

// prepLoop builds a closed loop over a fresh Bluesky testbed whose engine
// reads telemetry through store(db), driven by policy.Geomancy over
// model(bridge), with the bridge installed on the loop when attach is set.
// Its cadence is off: runs only record, and decisions are Decide calls.
// Three runs of telemetry are recorded before it is returned.
func prepLoop(t *testing.T, cfg Config, store func(*replaydb.DB) TelemetryStore, model func(*EngineModel) policy.Model, attach bool) (*Loop, *EngineModel) {
	t.Helper()
	cluster := storagesim.NewBluesky(17)
	files := trace.BelleFileSet(17)
	runner := workload.NewRunner(cluster, files, 1, 17)
	if err := runner.SpreadEvenly(cluster.DeviceNames()); err != nil {
		t.Fatal(err)
	}
	db, err := replaydb.Open(replaydb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	e, err := NewEngine(store(db), cluster.DeviceNames(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := e.NewModel(cluster)
	loop := NewPolicyLoop(db, cluster, runner, &policy.Geomancy{Model: model(m)}, 0)
	if attach {
		loop.SetModel(m)
	}
	for i := 0; i < 3; i++ {
		if _, err := loop.RunOnceContext(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	return loop, m
}

// The loop prepares every engine decision, whatever wraps the model: a
// Loop driving policy.Geomancy over a wrapper that exposes only Retrain,
// Update and Propose issues the decision's file window reads while Retrain
// runs at Parallelism 2, and before Retrain, on the caller, at Parallelism
// 1; the two decide the same layout.
func TestLoopPreparesBesideTheFit(t *testing.T) {
	var layouts []map[int64]string
	for _, tc := range []struct {
		par  int
		want []string
	}{
		{1, []string{"file window", "retrain", "propose"}},
		{2, []string{"retrain", "file window", "propose"}},
	} {
		cfg := Config{Epochs: 2, WindowX: 200, Seed: 5, Parallelism: tc.par}
		store := &watchedStore{rendezvous: tc.par > 1}
		var w *fitWatch
		loop, _ := prepLoop(t, cfg,
			func(db *replaydb.DB) TelemetryStore { store.db = db; return store },
			func(m *EngineModel) policy.Model { w = &fitWatch{m: m, store: store}; return w },
			true)
		store.reset()
		if err := loop.Decide(context.Background()); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(store.log, tc.want) {
			t.Errorf("parallelism %d: the decision ran %v, want %v", tc.par, store.log, tc.want)
		}
		if tc.par > 1 && !w.overlapped {
			t.Errorf("parallelism %d: no file window was read while Retrain ran", tc.par)
		}
		layouts = append(layouts, loop.Cluster.Layout())
	}
	if !reflect.DeepEqual(layouts[0], layouts[1]) {
		t.Error("the overlapped decision's layout differs from the one prepared on the caller")
	}
}

// A decision whose fit fails is dropped unfinished, and the loop joins the
// helper that prepared it: over a first full pass and pruned decisions, loops
// at Parallelism 1 and 2 step through a cycle whose store has gone dark
// (the fit finds no telemetry) and one whose fit is cancelled after its
// first epoch. Each failed cycle returns its error with no more goroutines
// running than before it, asks the model for no proposal, leaves no
// prepared files or tasks on its unit, and leaves the cadence, the dirty
// watermark and the feature cache as the serial path leaves them: a loop
// without the bridge attached, whose policy proposes whole after the fit.
// The decisions after them equal the serial path's.
func TestFailedDecisionJoinsAndDrops(t *testing.T) {
	const darkAt, cancelAt, steps = 2, 3, 6
	type system struct {
		name  string
		loop  *Loop
		m     *EngineModel
		store *blackoutStore
		model *bareModel
	}
	build := func(name string, par int, attach bool) *system {
		s := &system{name: name}
		cfg := Config{Epochs: 2, WindowX: 200, Seed: 5, Epsilon: 0.1, TopK: 2, FullRescanEvery: 4, Parallelism: par}
		s.loop, s.m = prepLoop(t, cfg,
			func(db *replaydb.DB) TelemetryStore { s.store = &blackoutStore{DB: db}; return s.store },
			func(m *EngineModel) policy.Model { s.model = &bareModel{m: m}; return s.model },
			attach)
		return s
	}
	ref := build("serial", 1, false)
	systems := []*system{build("prepared/par=1", 1, true), build("prepared/par=2", 2, true)}
	for k := 0; k < steps; k++ {
		ctx := func() context.Context { return context.Background() }
		if k == cancelAt {
			ctx = func() context.Context { return &cancelAfter{Context: context.Background(), n: 1} }
		}
		for _, s := range append([]*system{ref}, systems...) {
			s.store.dark = k == darkAt
		}
		wantErr := ref.loop.Decide(ctx())
		want := pruningOf(ref.m.Engine)
		for _, s := range systems {
			proposes, before := s.model.proposes, runtime.NumGoroutine()
			err := s.loop.Decide(ctx())
			goroutinesBack(t, before)
			switch {
			case k == darkAt && !errors.Is(err, ErrNoTelemetry):
				t.Fatalf("%s step %d: dark fit returned %v, want ErrNoTelemetry", s.name, k, err)
			case k == cancelAt && !errors.Is(err, context.Canceled):
				t.Fatalf("%s step %d: cancelled fit returned %v, want context.Canceled", s.name, k, err)
			case (err == nil) != (wantErr == nil):
				t.Fatalf("%s step %d: err %v, serial %v", s.name, k, err, wantErr)
			}
			if err != nil {
				if s.model.proposes != proposes {
					t.Errorf("%s step %d: a failed fit was followed by a proposal", s.name, k)
				}
				if files, u := s.m.Engine.prep.files, &s.m.units[0]; files != nil || u.tasks != nil {
					t.Errorf("%s step %d: the failed decision left %d files and %d tasks prepared", s.name, k, len(files), len(u.tasks))
				}
			}
			if !reflect.DeepEqual(pruningOf(s.m.Engine), want) {
				t.Fatalf("%s step %d: cadence, watermark or cache differs from the serial path's", s.name, k)
			}
			if !reflect.DeepEqual(s.loop.Cluster.Layout(), ref.loop.Cluster.Layout()) {
				t.Fatalf("%s step %d: the layout differs from the serial path's", s.name, k)
			}
		}
		for _, s := range append([]*system{ref}, systems...) {
			s.store.dark = false
			if _, err := s.loop.RunOnceContext(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := ref.m.Engine.decisionCount; got != steps-2 {
		t.Fatalf("the serial engine committed %d decisions, want %d", got, steps-2)
	}
}
