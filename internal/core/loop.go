package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

	"geomancy/internal/policy"
	"geomancy/internal/replaydb"
	"geomancy/internal/storagesim"
	"geomancy/internal/telemetry"
	"geomancy/internal/trace"
	"geomancy/internal/workload"
)

// MovementEvent records one layout application for Fig. 5's movement bars:
// how many files moved, aligned to the global access index.
type MovementEvent struct {
	AccessIndex int64
	Moved       int
	Run         int
	// Random counts exploration decisions in the applied layout.
	Random int
}

// SkippedDecision records one decision cycle the loop served in degraded
// mode: agents were unreachable (or telemetry was not yet queryable), so
// the last-known layout was kept instead of aborting the run.
type SkippedDecision struct {
	Run    int
	Reason string
}

// LayoutPusher applies a layout through the distributed control plane
// (agents.Daemon.PushLayout); the loop falls back to the in-process
// Workload.ApplyLayout when none is installed.
type LayoutPusher interface {
	PushLayout(layout map[int64]string) (int, error)
}

// Workload is the loop's view of the driven workload: the minimal
// surface the decide-and-move cycle needs. *workload.Runner and every
// scenario in internal/scenario satisfy it; the full scenario-plane
// contract (naming, checkpoint marshaling) lives in scenario.Workload,
// which embeds the same methods.
type Workload interface {
	// Files returns the working set the engine lays out.
	Files() []trace.BelleFile
	// ApplyLayout re-homes files per the layout, returning the moves.
	ApplyLayout(layout map[int64]string) ([]storagesim.MoveResult, error)
	// RunOnceContext executes one workload run, reporting every access
	// to obs.
	RunOnceContext(ctx context.Context, obs workload.Observer) (workload.RunStats, error)
}

// Loop wires the full Geomancy closed loop in-process: workload runs feed
// telemetry into the ReplayDB; every decision cycle the installed Policy
// proposes a layout from a fresh telemetry snapshot, the proposal passes
// the movement scheduler, and the moves are applied with their overhead
// charged to the virtual clock. With the default geomancy policy a cycle
// is the paper's retrain + ε-greedy proposal; baselines decide from the
// same snapshot with no engine at all (Engine stays nil).
//
// The distributed deployment (monitoring/control agents over TCP) lives in
// package agents and cmd/geomancy; Loop is the direct-coupled equivalent
// the experiments use, with identical decision logic.
type Loop struct {
	// Policy decides layouts. NewNamedLoop installs a catalogue policy;
	// NewPolicyLoop accepts any implementation.
	//geomancy:ephemeral serialized separately as the checkpoint's policy blob (Snapshot.Policy)
	Policy policy.Policy
	// Engine is the DRL engine behind an engine-backed Policy; nil when
	// the policy is a baseline heuristic.
	//geomancy:ephemeral snapshots itself as Snapshot.Engine (EngineState)
	Engine *Engine
	// Workload is the driven workload (the paper's BELLE II runner by
	// default; any scenario.Workload otherwise).
	//geomancy:ephemeral snapshots itself as the checkpoint's workload blob
	Workload Workload
	DB       *replaydb.DB        //geomancy:ephemeral external store handle, re-wired at restore
	Cluster  *storagesim.Cluster //geomancy:ephemeral snapshots itself as Snapshot.Cluster (ClusterState)

	// model is the policy-plane bridge of an engine-backed policy; its
	// training reports drain into trainLog after every proposal.
	//geomancy:ephemeral rebuilt by loop construction; pending reports drain into the serialized trainLog
	model *EngineModel
	// decideEvery is the decision cadence in runs (CooldownRuns for
	// constructed loops); ≤ 0 disables the automatic cadence, leaving
	// decisions to explicit Decide calls.
	//geomancy:ephemeral construction config (CooldownRuns), re-supplied on rebuild
	decideEvery int
	// Warmup is the number of leading workload runs that only record
	// telemetry: no decision follows a run whose index is below it.
	//geomancy:ephemeral construction config (the facade's bootstrap runs), re-supplied on rebuild
	Warmup int
	// lastRun is the index of the last completed workload run, so
	// out-of-cadence Decide calls attribute their movement events.
	lastRun int

	accessCount int64
	movements   []MovementEvent
	trainLog    []TrainReport
	deferrals   []Deferral
	skipped     []SkippedDecision
	// Observer, when set, additionally receives every access, in access
	// order, after the access is recorded: on the caller, or on the
	// recording goroutine when the run records beside the simulation
	// (recordsBeside). Every call returns before RunOnceContext does.
	Observer workload.Observer
	// Recorder, when set, replaces the direct ReplayDB append on the
	// telemetry path — the distributed deployment routes every access
	// through its monitoring agents instead. A loop with a Recorder records
	// on the caller.
	Recorder func(res storagesim.AccessResult, wl, run int) error
	// ring hands a run's accesses to the recording goroutine; built by the
	// first run that records beside the simulation, and reused.
	//geomancy:ephemeral empty between runs, rebuilt on demand
	ring *recordRing
	// Pusher, when set, applies decided layouts through the distributed
	// control plane instead of Runner.ApplyLayout.
	//geomancy:ephemeral deployment wiring, re-installed on rebuild
	Pusher LayoutPusher
	// Flusher, when set, drains buffered telemetry (the monitoring agents'
	// partial batches) after every run, so each run's accesses are fully
	// queryable before the engine's next decision.
	Flusher func() error
	// FailOpen keeps the loop alive through agent outages: when the
	// daemon or a control agent is unreachable during a decision cycle,
	// the loop keeps serving the last-known layout, records the cycle in
	// Skipped, and counts it on the degraded-decisions metric instead of
	// returning an error.
	//geomancy:ephemeral operator config, re-supplied on rebuild
	FailOpen bool
	// gaps, when set, gates movements on predicted access gaps (the
	// paper's §X extension); EnableGapScheduling installs it.
	gaps *GapPredictor

	// metrics instrumentation, installed by SetMetrics; all handles no-op
	// while nil.
	metricsObs   workload.Observer
	movesCtr     *telemetry.Counter //geomancy:ephemeral telemetry counter, re-registered by SetMetrics
	movedBytes   *telemetry.Counter //geomancy:ephemeral telemetry counter, re-registered by SetMetrics
	deferralsCtr *telemetry.Counter //geomancy:ephemeral telemetry counter, re-registered by SetMetrics
	exploreCtr   *telemetry.Counter //geomancy:ephemeral telemetry counter, re-registered by SetMetrics
	degradedCtr  *telemetry.Counter //geomancy:ephemeral telemetry counter, re-registered by SetMetrics
}

// SetMetrics wires the loop (and its engine, when the policy has one) to
// report through reg: per-device access histograms on every recorded
// access, movement / deferral / exploration counters on every layout
// application, and the engine's training gauges. Counters are
// pre-registered so they export at zero before the first decision.
func (l *Loop) SetMetrics(reg *telemetry.Registry) {
	l.metricsObs = workload.MetricsObserver(reg)
	l.movesCtr = reg.Counter(telemetry.MetricMovementsTotal)
	l.movedBytes = reg.Counter(telemetry.MetricMovedBytesTotal)
	l.deferralsCtr = reg.Counter(telemetry.MetricDeferralsTotal)
	l.exploreCtr = reg.Counter(telemetry.MetricExplorationTotal)
	l.degradedCtr = reg.Counter(telemetry.MetricAgentDegradedTotal)
	if l.Engine != nil {
		l.Engine.SetMetrics(reg)
	}
	// Policies carrying their own instrumentation (the sharded
	// coordinator's per-shard counters) register on the same registry.
	if pm, ok := l.Policy.(interface{ SetMetrics(*telemetry.Registry) }); ok {
		pm.SetMetrics(reg)
	}
}

// NewNamedLoop assembles an unsharded loop driven by the named placement
// policy from the catalogue (see BuildPolicy): learned names train through
// store — e.g. an agents.RemoteStore, preserving the paper's decoupling
// where "the DRL engine requests training data from the ReplayDB via the
// Interface Daemon" (§V-E) — while movement records still persist to db.
// The decision cadence is cfg.CooldownRuns.
func NewNamedLoop(store TelemetryStore, db *replaydb.DB, cluster *storagesim.Cluster, runner Workload, name string, cfg Config) (*Loop, error) {
	p, model, err := BuildPolicy(store, cluster, name, 0, cfg)
	if err != nil {
		return nil, err
	}
	l := NewPolicyLoop(db, cluster, runner, p, cfg.withDefaults().CooldownRuns)
	l.SetModel(model)
	return l, nil
}

// NewPolicyLoop assembles an engine-free loop driven by p, deciding
// every decideEvery runs (≤ 0 disables the automatic cadence; callers
// then drive decisions with Decide). For an engine-backed policy, attach
// its bridge with SetModel so training reports reach the TrainLog.
func NewPolicyLoop(db *replaydb.DB, cluster *storagesim.Cluster, runner Workload, p policy.Policy, decideEvery int) *Loop {
	return &Loop{
		Policy:      p,
		Workload:    runner,
		DB:          db,
		Cluster:     cluster,
		decideEvery: decideEvery,
		lastRun:     -1,
	}
}

// SetModel installs the engine bridge behind the loop's policy: its
// training reports drain into the TrainLog after every proposal, and its
// engine surfaces on the Engine field for inspection and checkpointing.
// With a bridge installed the policy is a learned one, so the loop's
// snapshots leave DeviceInfo.Throughput zero, which no learned policy
// reads. NewNamedLoop installs the bridge automatically; a nil model
// detaches (baseline policies).
func (l *Loop) SetModel(m *EngineModel) {
	l.model = m
	if m != nil {
		l.Engine = m.Engine
	}
}

// Skipped returns every decision cycle served in degraded mode.
func (l *Loop) Skipped() []SkippedDecision {
	return append([]SkippedDecision(nil), l.skipped...)
}

// degradable reports whether err is an outage the loop may fail open on:
// an unreachable peer — any error in the chain that says so through an
// Unavailable method, as the agents plane's transport failures do — or an
// engine window that came back empty because the remote store could not
// serve it.
func degradable(err error) bool {
	var outage interface{ Unavailable() bool }
	return (errors.As(err, &outage) && outage.Unavailable()) || errors.Is(err, ErrNoTelemetry)
}

// noteDegraded records one fail-open cycle.
func (l *Loop) noteDegraded(run int, err error) {
	l.skipped = append(l.skipped, SkippedDecision{Run: run, Reason: err.Error()})
	l.degradedCtr.Inc()
}

// EnableGapScheduling installs a gap-aware movement scheduler fed by the
// loop's own telemetry and returns its predictor for inspection.
func (l *Loop) EnableGapScheduling() *GapPredictor {
	l.gaps = NewGapPredictor()
	return l.gaps
}

// Deferrals returns every move the scheduler postponed.
func (l *Loop) Deferrals() []Deferral { return append([]Deferral(nil), l.deferrals...) }

// Movements returns the layout-application history.
func (l *Loop) Movements() []MovementEvent {
	return append([]MovementEvent(nil), l.movements...)
}

// TrainLog returns every training report the loop produced.
func (l *Loop) TrainLog() []TrainReport {
	return append([]TrainReport(nil), l.trainLog...)
}

// record stores telemetry from one access: through the Recorder (the
// distributed monitoring agents) when installed, directly into the
// ReplayDB otherwise.
func (l *Loop) record(res storagesim.AccessResult, wl, run int) error {
	l.accessCount++
	if l.metricsObs != nil {
		l.metricsObs(res, wl, run)
	}
	if l.gaps != nil {
		l.gaps.Observe(res.FileID, res.Start)
	}
	if l.Recorder != nil {
		return l.Recorder(res, wl, run)
	}
	_, err := l.DB.AppendAccess(replaydb.FromAccess(res, wl, run))
	return err
}

// policyThroughputWindow is the per-device telemetry window the loop
// averages into the policy snapshot's device throughput — the recency
// window the paper's base cases read from the ReplayDB.
const policyThroughputWindow = 200

// ReplayHorizon is the retention a ReplayDB needs to answer every query a
// loop and engines built from cfg make of it: per device, the widest of the
// full-training window (WindowX), the online-update window and the policy
// snapshot's throughput window; per file, the candidate-row history
// (fileHistory).
func ReplayHorizon(cfg Config) replaydb.Horizon {
	return replaydb.Horizon{
		PerDevice: max(cfg.withDefaults().WindowX, DefaultUpdateWindow, policyThroughputWindow),
		PerFile:   fileHistory,
	}
}

// PolicyState snapshots the system the way policies decide on it: mean
// device throughput over recent ReplayDB telemetry and free capacity per
// device, and the working set with each file's placement, recency and
// access count as the cluster's file table holds them. The loop and the
// experiment harness's loop-less bootstrap both decide from it.
func PolicyState(db *replaydb.DB, cluster *storagesim.Cluster, files []trace.BelleFile) policy.State {
	return policyState(db, cluster, files, true)
}

// policyState is PolicyState, with each device's mean throughput walked
// from its window only when means is set; otherwise DeviceInfo.Throughput
// stays zero.
func policyState(db *replaydb.DB, cluster *storagesim.Cluster, files []trace.BelleFile, means bool) policy.State {
	names := cluster.DeviceNames()
	s := policy.State{
		Devices: make([]policy.DeviceInfo, 0, len(names)),
		Files:   make([]policy.FileInfo, 0, len(files)),
	}
	for _, name := range names {
		d := policy.DeviceInfo{Name: name, Free: cluster.Device(name).Free()}
		if means {
			d.Throughput = db.MeanThroughputByDevice(name, policyThroughputWindow)
		}
		s.Devices = append(s.Devices, d)
	}
	cluster.ReadFiles(func(t storagesim.FileTable) {
		for _, f := range files {
			fs := t.File(f.ID)
			s.Files = append(s.Files, policy.FileInfo{
				ID:         f.ID,
				Path:       f.Path,
				Size:       f.Size,
				Device:     fs.Device,
				LastAccess: fs.LastAccess,
				Accesses:   fs.Accesses,
			})
		}
	})
	return s
}

// shouldDecide reports whether the cadence calls for a decision after
// the given workload run (runs are 0-based; the first decision follows the
// first run past Warmup that completes a multiple of decideEvery runs).
func (l *Loop) shouldDecide(run int) bool {
	return l.decideEvery > 0 && run >= l.Warmup && (run+1)%l.decideEvery == 0
}

// Decide forces one decision cycle immediately, outside the automatic
// cadence — the experiment harness uses it for the initial placement at
// measurement start. The cycle is attributed to the last completed run.
func (l *Loop) Decide(ctx context.Context) error {
	if l.Policy == nil {
		return fmt.Errorf("core: loop has no policy")
	}
	return l.decideCycle(ctx, l.lastRun)
}

// decideCycle runs one full decision: snapshot the system, ask the
// policy, filter the proposal through the movement scheduler, apply it,
// and record the movements. A loop holding an engine bridge drives a
// learned policy, which decides from the working set alone and reads no
// device's throughput, so its snapshot skips the per-device means.
func (l *Loop) decideCycle(ctx context.Context, run int) error {
	state := policyState(l.DB, l.Cluster, l.Workload.Files(), l.model == nil)
	layout, err := l.propose(ctx, state)
	if err != nil {
		return fmt.Errorf("core: proposing layout: %w", err)
	}
	if layout == nil {
		return nil
	}
	if l.gaps != nil {
		var deferred []Deferral
		layout, deferred = l.gaps.Filter(layout, l.Cluster, ClusterMoveEstimator(l.Cluster))
		l.deferrals = append(l.deferrals, deferred...)
		l.deferralsCtr.Add(uint64(len(deferred)))
	}
	moves, err := l.applyLayout(layout)
	if err != nil {
		return fmt.Errorf("core: applying layout: %w", err)
	}
	randomCount := 0
	if ex, ok := l.Policy.(policy.Explorer); ok {
		randomCount = ex.LastExplored()
	}
	l.movesCtr.Add(uint64(len(moves)))
	l.exploreCtr.Add(uint64(randomCount))
	for _, mv := range moves {
		l.movedBytes.Add(uint64(mv.Bytes))
		if _, err := l.DB.AppendMovement(replaydb.MovementRecord{
			Time:        mv.Start,
			FileID:      mv.FileID,
			From:        mv.From,
			To:          mv.To,
			Bytes:       mv.Bytes,
			Duration:    mv.Duration,
			AccessIndex: l.accessCount,
		}); err != nil {
			return fmt.Errorf("core: recording movement: %w", err)
		}
	}
	l.movements = append(l.movements, MovementEvent{
		AccessIndex: l.accessCount,
		Moved:       len(moves),
		Run:         run,
		Random:      randomCount,
	})
	return nil
}

// propose asks the policy for a layout from state. With an engine bridge
// installed, the engine's decision over the snapshot's files is prepared
// first (EngineModel.prepareAhead): on one helper goroutine beside the
// policy's Retrain or Update at Config.Parallelism > 1, on the caller at 1.
// However the policy returns, the helper is joined and whatever the
// decision left unfinished is dropped before propose does, and the
// bridge's training reports drain into the TrainLog.
func (l *Loop) propose(ctx context.Context, state policy.State) (map[int64]string, error) {
	m := l.model
	if m == nil {
		return l.Policy.Propose(ctx, state)
	}
	m.prepareAhead(state.Files)
	defer func() {
		m.drop()
		l.trainLog = append(l.trainLog, m.Reports()...)
	}()
	return l.Policy.Propose(ctx, state)
}

// applyLayout re-homes files: through the control plane when a Pusher is
// installed (the movements materialize as cluster-layout changes made by
// the control agents' movers), via the Runner otherwise.
func (l *Loop) applyLayout(layout map[int64]string) ([]storagesim.MoveResult, error) {
	if l.Pusher == nil {
		return l.Workload.ApplyLayout(layout)
	}
	before := l.Cluster.Layout()
	if _, err := l.Pusher.PushLayout(layout); err != nil {
		return nil, err
	}
	// The agents applied the moves remotely; reconstruct the movement
	// records from the observable layout change.
	after := l.Cluster.Layout()
	var moves []storagesim.MoveResult
	for _, f := range l.Workload.Files() {
		if before[f.ID] != after[f.ID] {
			moves = append(moves, storagesim.MoveResult{
				FileID: f.ID,
				From:   before[f.ID],
				To:     after[f.ID],
				Bytes:  f.Size,
				Start:  l.Cluster.Now(),
			})
		}
	}
	return moves, nil
}

// recordsBeside reports whether a run records its accesses on a recording
// goroutine beside the simulation rather than on the caller: when the loop
// appends to its own ReplayDB (no Recorder) and drives an engine whose
// Config.Parallelism is above 1.
func (l *Loop) recordsBeside() bool {
	return l.Recorder == nil && l.model != nil && l.model.Engine.cfg.Parallelism > 1
}

// queuedAccess is one access on its way to the recording goroutine.
type queuedAccess struct {
	res     storagesim.AccessResult
	wl, run int
}

// recordSlots is how many accesses the recording ring holds (2 KB, kept on
// the loop between runs), and recordChunk how many the writer publishes at
// a time. The caller and the recording goroutine go at about the same
// pace, so a little slack keeps either from waiting long on the other.
// recordSpins is how many times the reader yields for an empty ring before
// it parks.
const (
	recordSlots = 16
	recordChunk = 4
	recordSpins = 1000
)

// recordRing is the queue between a run's simulating caller, its only
// writer, and the recording goroutine, its only reader. Slot i%recordSlots
// holds the i-th access of the ring's life; tail is how many accesses the
// writer has published, head how many the reader is done with. Either side
// waits for the other by yielding (runtime.Gosched): a hand-off then costs
// an atomic store and load instead of a wake-up of the other core, and all
// there is to run beside a run is the other side. Only a reader that has
// yielded recordSpins times in vain parks, until the writer's next publish
// wakes it, so a workload that stalls does not keep a core spinning. done
// carries what the reading goroutine panicked with, nil if it did not,
// once it has read everything.
type recordRing struct {
	slots [recordSlots]queuedAccess
	_     [64]byte // head, tail and the writer's fields on cache lines of their own
	head  atomic.Uint64
	_     [56]byte
	tail  atomic.Uint64
	_     [56]byte
	// written and freed are the writer's own: the accesses it has
	// written, and head as it last read it.
	written, freed uint64
	_              [48]byte
	// closed is set once the writer has published its last access, and
	// parked while the reader waits on wake.
	closed, parked atomic.Bool
	wake           chan struct{}
	done           chan any
}

func newRecordRing() *recordRing {
	return &recordRing{wake: make(chan struct{}, 1), done: make(chan any, 1)}
}

// push writes one access, waiting while the ring is full, and publishes
// every recordChunk-th.
func (r *recordRing) push(a queuedAccess) {
	w := r.written
	if w-r.freed == recordSlots {
		r.publish(w) // the reader may be waiting on what is unpublished
		for r.freed = r.head.Load(); w-r.freed == recordSlots; r.freed = r.head.Load() {
			runtime.Gosched()
		}
	}
	r.slots[w%recordSlots] = a
	r.written = w + 1
	if r.written%recordChunk == 0 {
		r.publish(r.written)
	}
}

// publish makes the first n accesses readable and wakes a parked reader.
func (r *recordRing) publish(n uint64) {
	r.tail.Store(n)
	r.wakeReader()
}

// close publishes the rest of the run and marks its end.
func (r *recordRing) close() {
	r.tail.Store(r.written)
	r.closed.Store(true)
	r.wakeReader()
}

// wakeReader wakes the reader if it is parked.
func (r *recordRing) wakeReader() {
	if r.parked.Load() && r.parked.Swap(false) {
		r.wake <- struct{}{}
	}
}

// await returns once the writer has published past h or closed the ring.
// Parking is safe against a publish racing it: the reader marks itself
// parked before it looks at tail a last time, and the writer looks at the
// mark after it stores tail, so one of them sees the other; whichever side
// clears the mark settles who sends and who takes the wake-up.
func (r *recordRing) await(h uint64) {
	for spins := 0; r.tail.Load() == h && !r.closed.Load(); spins++ {
		if spins < recordSpins {
			runtime.Gosched()
			continue
		}
		r.parked.Store(true)
		if (r.tail.Load() == h && !r.closed.Load()) || !r.parked.Swap(false) {
			<-r.wake
		}
	}
}

// drain runs record over every access published, in order, until the
// writer closes the ring, and returns what record panicked with, nil if it
// did not. A panicking record leaves the rest of the run unrecorded but
// still frees every slot, so the writer never blocks.
func (r *recordRing) drain(record workload.Observer) (failure any) {
	h := r.head.Load()
	finished := false
	defer func() {
		if !finished {
			failure = recover()
			for {
				h = r.tail.Load()
				r.head.Store(h)
				if r.closed.Load() && r.tail.Load() == h {
					break
				}
				r.await(h)
			}
		}
	}()
	for {
		// tail is stored before closed, so the tail read after a closed
		// ring is seen is final.
		closed := r.closed.Load()
		t := r.tail.Load()
		for ; h != t; h++ {
			a := &r.slots[h%recordSlots]
			record(a.res, a.wl, a.run)
		}
		r.head.Store(h)
		if closed {
			break
		}
		r.await(h)
	}
	finished = true
	return nil
}

// runBeside executes one workload run with record on a recording goroutine:
// the caller simulates and queues each access, the goroutine takes them in
// order. The goroutine is joined before runBeside returns or a panic of the
// workload propagates, and a panic of record reaches the caller.
func (l *Loop) runBeside(ctx context.Context, record workload.Observer) (workload.RunStats, error) {
	if l.ring == nil {
		l.ring = newRecordRing()
	}
	r := l.ring
	r.closed.Store(false)
	go func() {
		var failure any
		defer func() { r.done <- failure }()
		failure = r.drain(record)
	}()
	defer func() {
		r.close()
		if failure := <-r.done; failure != nil {
			panic(failure)
		}
	}()
	return l.Workload.RunOnceContext(ctx, func(res storagesim.AccessResult, wl, run int) {
		r.push(queuedAccess{res, wl, run})
	})
}

// RunOnceContext executes one workload run and, when the cadence allows,
// one full decide-and-move cycle, returning the run statistics. ctx is
// checked between workload accesses, between training epochs, and between
// candidate-scoring batches. A cancelled cycle returns ctx.Err() (possibly
// wrapped) promptly without applying a partial layout. Every access is
// recorded, then handed to the Observer, on the caller or, when
// recordsBeside, on a recording goroutine that is joined before the run's
// statistics are returned.
func (l *Loop) RunOnceContext(ctx context.Context) (workload.RunStats, error) {
	var obsErr error
	record := func(res storagesim.AccessResult, wl, run int) {
		if e := l.record(res, wl, run); e != nil && obsErr == nil {
			obsErr = e
		}
		if l.Observer != nil {
			l.Observer(res, wl, run)
		}
	}
	var stats workload.RunStats
	var err error
	if l.recordsBeside() {
		stats, err = l.runBeside(ctx, record)
	} else {
		stats, err = l.Workload.RunOnceContext(ctx, record)
	}
	if err != nil {
		return stats, err
	}
	l.lastRun = stats.Run
	if obsErr != nil {
		// Telemetry could not reach the daemon. In fail-open mode the
		// monitors retain the unacked batch (replayed on the next flush),
		// so nothing is lost — skip this cycle's decision and keep
		// serving the last-known layout.
		if l.FailOpen && degradable(obsErr) {
			l.noteDegraded(stats.Run, obsErr)
			return stats, nil
		}
		return stats, fmt.Errorf("core: recording telemetry: %w", obsErr)
	}
	if l.Flusher != nil {
		if err := l.Flusher(); err != nil {
			if l.FailOpen && degradable(err) {
				l.noteDegraded(stats.Run, err)
				return stats, nil
			}
			return stats, fmt.Errorf("core: flushing telemetry: %w", err)
		}
	}
	if l.Policy == nil || !l.shouldDecide(stats.Run) {
		return stats, nil
	}
	if err := l.decideCycle(ctx, stats.Run); err != nil {
		if l.FailOpen && degradable(err) {
			l.noteDegraded(stats.Run, err)
			return stats, nil
		}
		return stats, err
	}
	return stats, nil
}
