package main

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"geomancy"
	"geomancy/internal/agents"
	"geomancy/internal/core"
	"geomancy/internal/policy"
	"geomancy/internal/replaydb"
	"geomancy/internal/rng"
	"geomancy/internal/scenario"
	"geomancy/internal/storagesim"
	"geomancy/internal/telemetry"
	"geomancy/internal/workload"
)

// system is what the measurement loop drives: the public facade in the
// untraced pass, tracedSystem in the traced one.
type system interface {
	Run() (geomancy.RunStats, error)
	Layout() map[int64]string
	Telemetry() int
	Movements() []geomancy.MovementEvent
	Skipped() []geomancy.SkippedDecision
	TrainLog() []geomancy.TrainReport
	Close() error
}

var _ system = (*geomancy.System)(nil)

// tracedSystem is geomancy.New / System.Run re-assembled from the layers'
// public constructors with a timing decorator at every interface boundary.
// It must stay a faithful mirror of the facade: the bench proves it by
// requiring the traced and untraced passes of one seed to end with the
// same layout digest, record count and simulated throughput.
type tracedSystem struct {
	t       *tracer
	cluster *storagesim.Cluster
	db      *replaydb.DB
	runner  scenario.Workload
	loop    *core.Loop
	sharded *core.Sharded

	daemon   *agents.Daemon
	monitors *agents.MonitorSet
	control  *agents.Control
	store    *agents.RemoteStore

	metricsObs    workload.Observer
	bootstrapLeft int

	// counts recorded at the store decorator, from any goroutine
	queryRows, queryCalls atomic.Int64
}

// monitorBatchSize mirrors the facade's monitoring-agent batch size.
const monitorBatchSize = 32

func newTracedSystem(s spec, in inputs, p paths, metrics *telemetry.Registry, t *tracer) (*tracedSystem, error) {
	cluster, err := storagesim.NewCluster(in.profiles, storagesim.Config{Seed: in.seed})
	if err != nil {
		return nil, fmt.Errorf("building cluster: %w", err)
	}
	inner, err := s.buildWorkload(cluster, in.files, in.seed)
	if err != nil {
		return nil, fmt.Errorf("building workload: %w", err)
	}
	sys := &tracedSystem{t: t, cluster: cluster, bootstrapLeft: s.bootstrap}
	runner := &tracedWorkload{Workload: inner, t: t}
	sys.runner = runner
	if err := runner.SpreadEvenly(cluster.DeviceNames()); err != nil {
		return nil, fmt.Errorf("placing working set: %w", err)
	}
	db, err := replaydb.Open(replaydb.Options{Path: p.wal})
	if err != nil {
		return nil, fmt.Errorf("opening replay database: %w", err)
	}
	sys.db = db
	sys.metricsObs = workload.MetricsObserver(metrics)

	var store core.TelemetryStore = &tracedLocalStore{tracedStore{inner: db, t: t, span: spanID(spanQuery), sys: sys}, db}
	if s.distributed {
		if err := sys.startAgents(metrics); err != nil {
			sys.Close()
			return nil, err
		}
		store = &tracedStore{inner: sys.store, t: t, span: spanID(spanRemoteQuery), sys: sys}
	}
	cfg := core.Config{
		ModelNumber:  s.model,
		Epsilon:      0.1,
		CooldownRuns: s.cooldown,
		Epochs:       s.epochs,
		WindowX:      s.window,
		Seed:         in.seed,
		Parallelism:  parallelism(),
		TopK:         s.topK,
	}
	var model *core.EngineModel
	var pol policy.Policy
	if s.shards > 0 {
		sharded, err := core.NewSharded(store, cluster, s.shards, nil, cfg)
		if err != nil {
			sys.Close()
			return nil, fmt.Errorf("building sharded coordinator: %w", err)
		}
		sys.sharded = sharded
		model = sharded.Model()
		pol = sharded
	} else {
		engine, err := core.NewEngine(store, cluster.DeviceNames(), cfg)
		if err != nil {
			sys.Close()
			return nil, fmt.Errorf("building engine: %w", err)
		}
		model = engine.NewModel(cluster)
		tm := &tracedModel{inner: model, t: t}
		switch s.policy {
		case "geomancy":
			pol = &policy.Geomancy{Model: tm}
		case "online-geomancy":
			pol = &policy.Online{Model: tm}
		default:
			sys.Close()
			return nil, fmt.Errorf("traced pass cannot assemble policy %q", s.policy)
		}
	}
	loop := core.NewPolicyLoop(db, cluster, runner, &tracedPolicy{Policy: pol, t: t}, s.cooldown)
	loop.SetModel(model)
	sys.loop = loop
	if s.distributed {
		loop.Recorder = func(res storagesim.AccessResult, wl, run int) error {
			sp := t.begin(spanID(spanObserve))
			err := sys.monitors.Observe(res, wl, run)
			t.end(sp)
			return err
		}
		loop.Flusher = func() error {
			sp := t.begin(spanID(spanFlush))
			err := sys.monitors.Flush()
			t.end(sp)
			return err
		}
		loop.Pusher = &tracedPusher{d: sys.daemon, rng: rng.New(in.seed + 101), t: t}
		loop.FailOpen = true
	} else {
		// The loop's own append path, made visible: with no Recorder the
		// loop calls DB.AppendAccess directly, so installing one that does
		// exactly that changes nothing but the span around it.
		loop.Recorder = func(res storagesim.AccessResult, wl, run int) error {
			sp := t.begin(spanID(spanAppend))
			_, err := db.AppendAccess(agents.ReportFromAccess(res, wl, run).ToRecord())
			t.end(sp)
			return err
		}
	}
	if metrics != nil {
		db.SetMetrics(metrics)
		loop.SetMetrics(metrics)
	}
	// The facade always installs an observer (its throughput accumulator);
	// keep the call so the access path does the same work.
	var tpSum float64
	loop.Observer = func(res storagesim.AccessResult, wl, run int) { tpSum += res.Throughput }
	return sys, nil
}

// startAgents mirrors the facade's distributed plane: Interface Daemon on
// loopback, one monitoring agent per device, a control agent moving files
// on the simulated cluster, and the engine's RemoteStore.
func (s *tracedSystem) startAgents(metrics *telemetry.Registry) error {
	daemon := agents.NewDaemon(s.db)
	var aopts []agents.Option
	if metrics != nil {
		daemon.SetMetrics(metrics)
		aopts = append(aopts, agents.WithMetrics(metrics))
	}
	addr, err := daemon.Start("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("starting interface daemon: %w", err)
	}
	s.daemon = daemon
	if s.monitors, err = agents.NewMonitorSet(addr, s.cluster.DeviceNames(), monitorBatchSize, aopts...); err != nil {
		return fmt.Errorf("starting monitoring agents: %w", err)
	}
	s.control, err = agents.NewControl(addr, func(id int64, dev string) (bool, error) {
		mv, err := s.cluster.Move(id, dev)
		if err != nil {
			return false, err
		}
		return mv.From != mv.To, nil
	}, aopts...)
	if err != nil {
		return fmt.Errorf("starting control agent: %w", err)
	}
	if s.store, err = agents.DialRemoteStore(addr, aopts...); err != nil {
		return fmt.Errorf("connecting engine store: %w", err)
	}
	return nil
}

// Run mirrors System.Run: bootstrap runs collect telemetry only, later
// runs go through the loop. Each call is one trace tick under a root span.
func (s *tracedSystem) Run() (geomancy.RunStats, error) {
	ctx := context.Background()
	s.t.nextTick()
	root := s.t.begin(spanID(spanRun))
	defer s.t.end(root)
	if s.bootstrapLeft == 0 {
		before := len(s.loop.Movements()) + len(s.loop.Skipped())
		st, err := s.loop.RunOnceContext(ctx)
		if len(s.loop.Movements())+len(s.loop.Skipped()) > before {
			s.t.rename(root, spanID(spanCycle))
		}
		return st, err
	}
	s.bootstrapLeft--
	var obsErr error
	st, err := s.runner.RunOnceContext(ctx, func(res storagesim.AccessResult, wl, run int) {
		s.loop.Observer(res, wl, run)
		if s.metricsObs != nil {
			s.metricsObs(res, wl, run)
		}
		if s.monitors != nil {
			if e := s.monitors.Observe(res, wl, run); e != nil && obsErr == nil {
				obsErr = e
			}
		} else if _, e := s.db.AppendAccess(agents.ReportFromAccess(res, wl, run).ToRecord()); e != nil && obsErr == nil {
			obsErr = e
		}
	})
	if err == nil && s.monitors != nil {
		if e := s.monitors.Flush(); e != nil && obsErr == nil {
			obsErr = e
		}
	}
	if err == nil && obsErr != nil {
		return st, fmt.Errorf("recording bootstrap telemetry: %w", obsErr)
	}
	return st, err
}

func (s *tracedSystem) Layout() map[int64]string            { return s.cluster.Layout() }
func (s *tracedSystem) Telemetry() int                      { return s.db.Len() }
func (s *tracedSystem) Movements() []geomancy.MovementEvent { return s.loop.Movements() }
func (s *tracedSystem) Skipped() []geomancy.SkippedDecision { return s.loop.Skipped() }
func (s *tracedSystem) TrainLog() []geomancy.TrainReport    { return s.loop.TrainLog() }

// Close stops the agents (when running) and releases the database; safe on
// a partially built system.
func (s *tracedSystem) Close() error {
	var errs []error
	if s.monitors != nil {
		errs = append(errs, s.monitors.Close())
	}
	if s.control != nil {
		errs = append(errs, s.control.Close())
	}
	if s.store != nil {
		errs = append(errs, s.store.Close())
	}
	if s.daemon != nil {
		errs = append(errs, s.daemon.Close())
	}
	if s.db != nil {
		errs = append(errs, s.db.Close())
	}
	return errors.Join(errs...)
}

// tracedWorkload times the access simulation and layout application. The
// observer it is handed is the loop's record path, so each callback is a
// core.record span and workload.run's self time is simulation alone.
type tracedWorkload struct {
	scenario.Workload
	t *tracer
}

func (w *tracedWorkload) RunOnceContext(ctx context.Context, obs workload.Observer) (workload.RunStats, error) {
	sp := w.t.begin(spanID(spanWorkloadRun))
	defer w.t.end(sp)
	record := spanID(spanRecord)
	return w.Workload.RunOnceContext(ctx, func(res storagesim.AccessResult, wl, run int) {
		c := w.t.begin(record)
		obs(res, wl, run)
		w.t.end(c)
	})
}

func (w *tracedWorkload) ApplyLayout(layout map[int64]string) ([]storagesim.MoveResult, error) {
	sp := w.t.begin(spanID(spanApplyLayout))
	defer w.t.end(sp)
	return w.Workload.ApplyLayout(layout)
}

// tracedStore times the engine's telemetry queries. The engine gathers
// candidate features on worker goroutines, so queries are leaf spans.
type tracedStore struct {
	inner core.TelemetryStore
	t     *tracer
	span  uint8
	sys   *tracedSystem
}

func (s *tracedStore) RecentByDevice(device string, n int) []replaydb.AccessRecord {
	sp := s.t.beginLeaf(s.span)
	recs := s.inner.RecentByDevice(device, n)
	s.t.endLeaf(sp)
	s.count(sp, len(recs))
	return recs
}

func (s *tracedStore) RecentByFile(fileID int64, n int) []replaydb.AccessRecord {
	sp := s.t.beginLeaf(s.span)
	recs := s.inner.RecentByFile(fileID, n)
	s.t.endLeaf(sp)
	s.count(sp, len(recs))
	return recs
}

// count tallies one query of the window (sp < 0 outside it).
func (s *tracedStore) count(sp int32, rows int) {
	if sp >= 0 {
		s.sys.queryCalls.Add(1)
		s.sys.queryRows.Add(int64(rows))
	}
}

// tracedLocalStore additionally forwards the replay database's dirty
// tracking (core.ChangeTracker), which the engine discovers by type
// assertion; the RemoteStore has none, so its decorator must not either.
type tracedLocalStore struct {
	tracedStore
	db *replaydb.DB
}

func (s *tracedLocalStore) Watermark() uint64                    { return s.db.Watermark() }
func (s *tracedLocalStore) FilesChangedSince(seq uint64) []int64 { return s.db.FilesChangedSince(seq) }
func (s *tracedLocalStore) FileLastSeq(fileID int64) uint64      { return s.db.FileLastSeq(fileID) }

// tracedModel times the three calls the learned policies make.
type tracedModel struct {
	inner policy.Model
	t     *tracer
}

func (m *tracedModel) Retrain(ctx context.Context) error {
	sp := m.t.begin(spanID(spanRetrain))
	defer m.t.end(sp)
	return m.inner.Retrain(ctx)
}

func (m *tracedModel) Update(ctx context.Context) error {
	sp := m.t.begin(spanID(spanUpdate))
	defer m.t.end(sp)
	return m.inner.Update(ctx)
}

func (m *tracedModel) Propose(ctx context.Context, s policy.State) (map[int64]string, []policy.Prediction, error) {
	sp := m.t.begin(spanID(spanPropose))
	defer m.t.end(sp)
	return m.inner.Propose(ctx, s)
}

// tracedPolicy times Policy.Propose and forwards the optional interfaces
// the loop discovers by type assertion.
type tracedPolicy struct {
	policy.Policy
	t *tracer
}

func (p *tracedPolicy) Propose(ctx context.Context, s policy.State) (map[int64]string, error) {
	sp := p.t.begin(spanID(spanPolicy))
	defer p.t.end(sp)
	return p.Policy.Propose(ctx, s)
}

func (p *tracedPolicy) LastExplored() int {
	if ex, ok := p.Policy.(policy.Explorer); ok {
		return ex.LastExplored()
	}
	return 0
}

func (p *tracedPolicy) SetMetrics(reg *telemetry.Registry) {
	if pm, ok := p.Policy.(interface{ SetMetrics(*telemetry.Registry) }); ok {
		pm.SetMetrics(reg)
	}
}

// tracedPusher mirrors the facade's retrying layout pusher.
type tracedPusher struct {
	d   *agents.Daemon
	rng *rng.RNG
	t   *tracer
}

func (p *tracedPusher) PushLayout(layout map[int64]string) (int, error) {
	sp := p.t.begin(spanID(spanPushLayout))
	defer p.t.end(sp)
	return p.d.PushLayoutRetry(layout, agents.RetryPolicy{}, p.rng)
}
