// Package geomancy is the public API of the Geomancy reproduction — an
// RL-driven data-layout optimizer for distributed storage, after "Geomancy:
// Automated Performance Enhancement through Data Layout Optimization"
// (Bel et al., ISPASS 2020).
//
// Geomancy watches per-access telemetry from every storage device of a
// target system, stores it in a replay database, trains a small neural
// network that predicts the throughput a file would see at every candidate
// location, and periodically migrates files to the locations with the
// highest predicted throughput (exploring randomly 10% of the time).
//
// The package wires the full closed loop over a simulated target system:
//
//	sys, err := geomancy.New(geomancy.WithSeed(42))
//	if err != nil { ... }
//	defer sys.Close()
//	for i := 0; i < 25; i++ {
//		stats, err := sys.Run()       // one workload run (+ tuning on cooldown)
//		...
//	}
//	fmt.Println(sys.MeanThroughput()) // bytes/second
//
// The building blocks live in internal packages: internal/nn (the neural
// network library), internal/storagesim (the simulated Bluesky cluster),
// internal/replaydb (the embedded telemetry store), internal/agents (the
// TCP monitoring/control plane), internal/core (the DRL engine), and
// internal/experiments (the paper's tables and figures).
package geomancy

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"geomancy/internal/agents"
	"geomancy/internal/checkpoint"
	"geomancy/internal/core"
	"geomancy/internal/faultnet"
	"geomancy/internal/policy"
	"geomancy/internal/replaydb"
	"geomancy/internal/rng"
	"geomancy/internal/scenario"
	"geomancy/internal/storagesim"
	"geomancy/internal/telemetry"
	"geomancy/internal/trace"
	"geomancy/internal/workload"
)

// Metrics is the telemetry registry: a concurrency-safe collection of
// counters, gauges, and histograms that every layer of the closed loop
// reports into. Expose it over HTTP with Serve (Prometheus text format on
// /metrics, JSON on /metrics.json) or snapshot it with WritePrometheus /
// WriteJSON.
type Metrics = telemetry.Registry

// NewMetrics returns an empty registry with the canonical Geomancy metric
// help text installed.
func NewMetrics() *Metrics {
	reg := telemetry.NewRegistry()
	telemetry.RegisterHelp(reg)
	return reg
}

// Sentinel errors of the public API. Match with errors.Is; the internal
// engine's sentinels (core.ErrNoTelemetry, core.ErrNotTrained) also surface
// through Run's error chain unchanged.
var (
	// ErrClosed reports a Run (or RunN) issued after Close.
	ErrClosed = errors.New("geomancy: system closed")
	// ErrCorrupt reports a checkpoint that failed validation (bad magic,
	// truncated frame, CRC mismatch). Restore from an older snapshot or
	// start fresh.
	ErrCorrupt = checkpoint.ErrCorrupt
	// ErrNoCheckpoint reports a Restore (or RestoreLatest) with no usable
	// snapshot to resume from.
	ErrNoCheckpoint = checkpoint.ErrNoCheckpoint
	// ErrUnknownPolicy reports a WithPolicy name outside the catalogue
	// (see Policies).
	ErrUnknownPolicy = policy.ErrUnknown
)

// RunStats re-exports the per-run workload summary.
type RunStats = workload.RunStats

// MovementEvent re-exports the layout-change record.
type MovementEvent = core.MovementEvent

// TrainReport re-exports the engine's training summary.
type TrainReport = core.TrainReport

// File describes one workload file.
type File = trace.BelleFile

// DeviceProfile re-exports the simulated-device description so callers can
// build custom clusters.
type DeviceProfile = storagesim.DeviceProfile

// AccessResult re-exports the per-access telemetry record observers see.
type AccessResult = storagesim.AccessResult

// Observer receives every access's telemetry, tagged with the workload id
// and run index. Observers run synchronously on the access path.
type Observer = workload.Observer

// RetryPolicy bounds every agent RPC in the distributed deployment:
// per-operation I/O deadlines plus an exponential-backoff retry budget
// with jitter. The zero value selects the defaults (4 attempts, 5ms base
// backoff, 5s I/O timeout).
type RetryPolicy = agents.RetryPolicy

// SkippedDecision records a decision cycle served in degraded mode: the
// agents plane was unreachable, so the last-known layout was kept.
type SkippedDecision = core.SkippedDecision

// FaultConfig tunes deterministic fault injection on the distributed
// deployment's agent connections (drops, delays, partial writes), for
// chaos-testing the control plane.
type FaultConfig = faultnet.Config

// FaultStats counts the faults injected so far.
type FaultStats = faultnet.Stats

// Workload is the scenario-plane contract a driven workload satisfies:
// identity, working set, placement, runs, and checkpoint serialization.
// See internal/scenario for the catalogue of implementations.
type Workload = scenario.Workload

// ScenarioInfo describes one registered scenario (name + description).
type ScenarioInfo = scenario.Info

// WorkloadBuilder constructs a custom workload over the system's cluster
// during New. files is the configured working set (nil selects the
// builder's default population) and seed is the configuration seed.
type WorkloadBuilder func(cluster *storagesim.Cluster, files []File, seed int64) (Workload, error)

// Scenarios lists every registered scenario, sorted by name — the
// catalogue WithScenario accepts.
func Scenarios() []ScenarioInfo { return scenario.List() }

// PolicyInfo describes one catalogued placement policy (name +
// description).
type PolicyInfo = policy.Info

// Policies lists every selectable placement policy, baselines first and
// the learned Geomancy family last — the catalogue WithPolicy accepts.
func Policies() []PolicyInfo { return policy.Catalogue() }

// config collects the options.
type config struct {
	seed          int64
	model         int
	epsilon       float64
	cooldown      int
	epochs        int
	windowX       int
	replayPath    string
	profiles      []storagesim.DeviceProfile
	files         []trace.BelleFile
	bootstrapRun  int
	target        string
	gapScheduling bool
	parallelism   int
	topK          int
	fullRescan    int
	observer      Observer
	metrics       *telemetry.Registry
	distributed   bool
	retry         *agents.RetryPolicy
	faults        *faultnet.Config
	checkpointDir string
	listenAddr    string
	failOpen      *bool
	scenario      string
	workload      WorkloadBuilder
	policy        string
	shards        int
}

// Option customizes New.
type Option func(*config)

// WithSeed fixes every stochastic component; equal seeds replay
// identically.
func WithSeed(seed int64) Option { return func(c *config) { c.seed = seed } }

// WithModel selects one of the dense Table I architectures (1–11); default
// 1. A recurrent one (12–23) fails New with core.ErrRecurrentModel.
func WithModel(n int) Option { return func(c *config) { c.model = n } }

// WithEpsilon sets the exploration rate; default 0.1.
func WithEpsilon(eps float64) Option { return func(c *config) { c.epsilon = eps } }

// WithCooldown sets how many workload runs pass between layout changes;
// default 5.
func WithCooldown(runs int) Option { return func(c *config) { c.cooldown = runs } }

// WithEpochs sets the training epochs of a cold fit; default 200 (the
// paper's per-decision setting — use a smaller value for interactive
// experimentation). A warm retrain trains a share of them in proportion to
// the telemetry recorded since the last one, at least one epoch.
func WithEpochs(epochs int) Option { return func(c *config) { c.epochs = epochs } }

// WithTrainingWindow sets the per-device ReplayDB window; default 2000.
func WithTrainingWindow(x int) Option { return func(c *config) { c.windowX = x } }

// WithReplayDB persists telemetry to the given WAL path instead of memory.
func WithReplayDB(path string) Option { return func(c *config) { c.replayPath = path } }

// WithDevices replaces the default Bluesky cluster profile.
func WithDevices(profiles []DeviceProfile) Option {
	return func(c *config) { c.profiles = profiles }
}

// WithScenario selects a named workload from the scenario catalogue
// (default "belle", the paper's BELLE II suite). See Scenarios for the
// registered names; an unknown name fails New.
func WithScenario(name string) Option { return func(c *config) { c.scenario = name } }

// WithPolicy selects a named placement policy from the policy catalogue
// (default "geomancy", the paper's DRL closed loop). See Policies for
// the registered names; an unknown name fails New with ErrUnknownPolicy.
// Baseline policies run engine-free: training-related options
// (WithModel, WithEpochs, ...) are ignored and checkpoints carry no
// engine state.
func WithPolicy(name string) Option { return func(c *config) { c.policy = name } }

// WithWorkload installs a custom workload built by fn over the system's
// cluster, overriding WithScenario. The builder's workload must be
// deterministic in (cluster, files, seed) for checkpoint/restore to
// reproduce it.
func WithWorkload(fn WorkloadBuilder) Option { return func(c *config) { c.workload = fn } }

// WithFiles replaces the default BELLE II working set.
func WithFiles(files []File) Option { return func(c *config) { c.files = files } }

// WithBootstrapRuns sets how many warm-up runs precede tuning; default 5.
// Warm-up runs record telemetry — and the recency, frequency and gap
// history policies decide from — exactly as later runs do, but no decision
// follows them.
func WithBootstrapRuns(n int) Option { return func(c *config) { c.bootstrapRun = n } }

// WithLatencyTarget switches the engine to minimizing predicted access
// latency instead of maximizing predicted throughput (the paper's §V-C
// future-work variant for latency-sensitive workloads).
func WithLatencyTarget() Option { return func(c *config) { c.target = core.TargetLatency } }

// WithGapScheduling gates data movements on each file's predicted
// inter-access gap, so transfers happen while their file is idle (the
// paper's §X extension).
func WithGapScheduling() Option { return func(c *config) { c.gapScheduling = true } }

// WithParallelism bounds the engine's scoring loop: a decision's files are
// cut into runs of about 256 candidate rows, and up to n goroutines each
// take a run end to end — features gathered, rows forwarded, scores and
// greedy picks written back. With WithShards the shards go through that
// loop one after another. The default is runtime.GOMAXPROCS(0). n is a
// matter of speed only and never affects a result: equal seeds give the
// same layouts, run stats and train log, bit for bit, at any n and on any
// machine. Training does not use the pool — every minibatch runs whole on
// one goroutine.
func WithParallelism(n int) Option { return func(c *config) { c.parallelism = n } }

// WithTopK enables the engine's candidate pruning: each decision scores a
// file against only the top k devices by recent throughput, ranked
// together across the cluster (plus never-probed devices and the file's
// current device), and files whose telemetry has not changed since the
// last decision keep their feature ingredients instead of re-reading
// their history. The first decision and every WithFullRescanEvery-th one
// still run the exhaustive pass, so pruning error cannot accumulate. k = 0
// (the default) scores every (file, device) pairing on every decision —
// the paper's behavior. New refuses a negative k.
func WithTopK(k int) Option { return func(c *config) { c.topK = k } }

// WithFullRescanEvery sets the pruning cadence: with WithTopK, every Nth
// decision scores the full candidate space and refetches every file's
// features.
// Default 8. Ignored without WithTopK. New refuses a negative n.
func WithFullRescanEvery(n int) Option { return func(c *config) { c.fullRescan = n } }

// WithShards partitions the cluster's devices into n shards and drives
// placement through the sharded coordinator: each shard owns a
// lightweight engine deciding over its own device subset through the one
// model the global engine trains, and placements a shard clearly cannot
// serve escalate to the cluster-wide throughput digest, admitted only
// while that device can hold them on top of the bytes the cycle's earlier
// escalations claimed there. Shards decide one after another, each
// through the same scoring loop on the WithParallelism workers, which
// never affects a result (fixed merge order, per-shard RNG streams). n = 1 is
// bit-identical to the unsharded engine; n = 0 (the default) disables
// sharding entirely. Devices are grouped contiguously in profile order.
// Only the default "geomancy" policy shards — combining WithShards with
// another WithPolicy fails New.
func WithShards(n int) Option { return func(c *config) { c.shards = n } }

// WithObserver taps every access's telemetry: fn runs synchronously for
// each AccessResult the workload produces, during bootstrap and tuned runs
// alike. Use it to stream per-access data into custom sinks without
// wiring a full telemetry registry.
func WithObserver(fn Observer) Option { return func(c *config) { c.observer = fn } }

// WithTelemetry reports every layer of the system — per-device access
// histograms, training gauges, movement and ReplayDB counters — through m.
// Share one registry across systems to aggregate, or call Serve on it to
// scrape live.
func WithTelemetry(m *Metrics) Option { return func(c *config) { c.metrics = m } }

// WithDistributed runs the closed loop through the paper's Fig. 2
// plumbing instead of in-process calls: an Interface Daemon on loopback
// TCP, one monitoring agent per device shipping telemetry batches, a
// control agent executing layout pushes, and the engine training through
// a RemoteStore. The loop fails open: when the daemon or a control agent
// is unreachable, it keeps serving the last-known layout, records the
// skipped decision (see Skipped), and counts it on
// geomancy_agents_degraded_decisions_total.
func WithDistributed() Option { return func(c *config) { c.distributed = true } }

// WithRetryPolicy bounds the distributed deployment's agent RPCs:
// deadlines, retry budget, and backoff. Only meaningful with
// WithDistributed.
func WithRetryPolicy(p RetryPolicy) Option {
	return func(c *config) { c.retry = &p }
}

// WithFaultInjection perturbs every agent connection of the distributed
// deployment with deterministic, seeded faults — the chaos-testing knob
// for the control plane. Only meaningful with WithDistributed.
func WithFaultInjection(fc FaultConfig) Option {
	return func(c *config) { c.faults = &fc }
}

// WithCheckpointDir enables checkpointing into dir: SaveCheckpoint writes
// rotating numbered snapshots there, Close flushes a final one, and
// RestoreLatest resumes from the newest intact snapshot. The directory is
// created if needed.
func WithCheckpointDir(dir string) Option {
	return func(c *config) { c.checkpointDir = dir }
}

// WithListenAddr sets the distributed deployment's Interface Daemon
// listen address; default "127.0.0.1:0" (loopback, ephemeral port). Only
// meaningful with WithDistributed.
func WithListenAddr(addr string) Option {
	return func(c *config) { c.listenAddr = addr }
}

// WithFailOpen controls the distributed loop's degraded mode. Fail-open
// (the default with WithDistributed) keeps serving the last-known layout
// when the agents plane is unreachable, recording the skipped cycle;
// fail-closed surfaces the outage as a Run error instead. Only meaningful
// with WithDistributed.
func WithFailOpen(on bool) Option {
	return func(c *config) { c.failOpen = &on }
}

// System is a fully wired Geomancy deployment over a simulated target
// system. It is not safe for concurrent use.
type System struct {
	cluster *storagesim.Cluster
	db      *replaydb.DB
	runner  scenario.Workload
	loop    *core.Loop

	// shards is the WithShards partition width (0 = unsharded).
	shards int

	// distributed plane (nil without WithDistributed)
	daemon     *agents.Daemon
	daemonAddr string
	monitors   *agents.MonitorSet
	control    *agents.Control
	store      *agents.RemoteStore
	fnet       *faultnet.Network

	closed  bool
	midRun  bool
	stats   []RunStats
	tpSum   float64
	tpCount int64

	seed       int64
	replayPath string
	ckptStore  *checkpoint.Store

	metrics *telemetry.Registry
}

// New assembles a system: cluster, working set spread evenly, replay
// database, and the DRL engine loop.
func New(opts ...Option) (*System, error) {
	cfg := config{
		seed:         1,
		model:        1,
		epsilon:      0.1,
		cooldown:     5,
		epochs:       200,
		windowX:      2000,
		bootstrapRun: 5,
		parallelism:  runtime.GOMAXPROCS(0),
	}
	for _, o := range opts {
		o(&cfg)
	}
	profiles := cfg.profiles
	if profiles == nil {
		profiles = storagesim.BlueskyProfiles()
	}
	cluster, err := storagesim.NewCluster(profiles, storagesim.Config{Seed: cfg.seed})
	if err != nil {
		return nil, fmt.Errorf("geomancy: building cluster: %w", err)
	}
	scenarioName := cfg.scenario
	if scenarioName == "" {
		scenarioName = "belle"
	}
	var runner scenario.Workload
	if cfg.workload != nil {
		runner, err = cfg.workload(cluster, cfg.files, cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("geomancy: building custom workload: %w", err)
		}
		if runner == nil {
			return nil, fmt.Errorf("geomancy: workload builder returned nil")
		}
	} else {
		runner, err = scenario.New(scenarioName, cluster, cfg.files, cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("geomancy: building workload: %w", err)
		}
	}
	if err := runner.SpreadEvenly(cluster.DeviceNames()); err != nil {
		return nil, fmt.Errorf("geomancy: placing working set: %w", err)
	}
	engCfg := core.Config{
		ModelNumber:     cfg.model,
		Epsilon:         cfg.epsilon,
		CooldownRuns:    cfg.cooldown,
		Epochs:          cfg.epochs,
		WindowX:         cfg.windowX,
		Seed:            cfg.seed,
		Target:          cfg.target,
		Parallelism:     cfg.parallelism,
		TopK:            cfg.topK,
		FullRescanEvery: cfg.fullRescan,
	}
	db, err := replaydb.Open(replaydb.Options{Path: cfg.replayPath, Horizon: core.ReplayHorizon(engCfg)})
	if err != nil {
		return nil, fmt.Errorf("geomancy: opening replay database: %w", err)
	}
	sys := &System{
		cluster:    cluster,
		db:         db,
		runner:     runner,
		shards:     cfg.shards,
		seed:       cfg.seed,
		replayPath: cfg.replayPath,
		metrics:    cfg.metrics,
	}
	if cfg.checkpointDir != "" {
		store, err := checkpoint.NewStore(cfg.checkpointDir)
		if err != nil {
			db.Close()
			return nil, fmt.Errorf("geomancy: opening checkpoint store: %w", err)
		}
		sys.ckptStore = store
	}
	var store core.TelemetryStore = db
	if cfg.distributed {
		if err := sys.startAgents(&cfg); err != nil {
			sys.teardownAgents()
			db.Close()
			return nil, err
		}
		store = sys.store
	}
	pol, model, err := core.BuildPolicy(store, cluster, cfg.policy, cfg.shards, engCfg)
	if err != nil {
		sys.teardownAgents()
		db.Close()
		return nil, fmt.Errorf("geomancy: building policy: %w", err)
	}
	loop := core.NewPolicyLoop(db, cluster, runner, pol, cfg.cooldown)
	loop.SetModel(model)
	loop.Warmup = cfg.bootstrapRun
	sys.loop = loop
	if cfg.distributed {
		rp := agents.RetryPolicy{}
		if cfg.retry != nil {
			rp = *cfg.retry
		}
		loop.Recorder = sys.monitors.Observe
		loop.Flusher = sys.monitors.Flush
		loop.Pusher = pushRetrier{
			d:      sys.daemon,
			policy: rp,
			rng:    rng.New(cfg.seed + 101),
		}
		loop.FailOpen = true
		if cfg.failOpen != nil {
			loop.FailOpen = *cfg.failOpen
		}
	}
	if cfg.gapScheduling {
		loop.EnableGapScheduling()
	}
	if cfg.metrics != nil {
		db.SetMetrics(cfg.metrics)
		loop.SetMetrics(cfg.metrics)
	}
	loop.Observer = func(res storagesim.AccessResult, wl, run int) {
		sys.tpSum += res.Throughput
		sys.tpCount++
		if cfg.observer != nil {
			cfg.observer(res, wl, run)
		}
	}
	return sys, nil
}

// startAgents brings up the distributed plane on loopback TCP: Interface
// Daemon, one monitoring agent per device, a control agent whose mover
// drives the simulated cluster, and the engine's RemoteStore.
func (s *System) startAgents(cfg *config) error {
	daemon := agents.NewDaemon(s.db)
	if cfg.metrics != nil {
		daemon.SetMetrics(cfg.metrics)
	}
	if cfg.faults != nil {
		s.fnet = faultnet.New(*cfg.faults)
		daemon.WrapListener = s.fnet.Listener
	}
	listen := cfg.listenAddr
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	addr, err := daemon.Start(listen)
	if err != nil {
		return fmt.Errorf("geomancy: starting interface daemon: %w", err)
	}
	s.daemon = daemon
	s.daemonAddr = addr
	var aopts []agents.Option
	if cfg.retry != nil {
		aopts = append(aopts, agents.WithRetryPolicy(*cfg.retry))
	}
	if cfg.metrics != nil {
		aopts = append(aopts, agents.WithMetrics(cfg.metrics))
	}
	monitors, err := agents.NewMonitorSet(addr, s.cluster.DeviceNames(), monitorBatchSize, aopts...)
	if err != nil {
		return fmt.Errorf("geomancy: starting monitoring agents: %w", err)
	}
	s.monitors = monitors
	control, err := agents.NewControl(addr, func(id int64, dev string) (bool, error) {
		mv, err := s.cluster.Move(id, dev)
		if err != nil {
			return false, err
		}
		return mv.From != mv.To, nil
	}, aopts...)
	if err != nil {
		return fmt.Errorf("geomancy: starting control agent: %w", err)
	}
	s.control = control
	store, err := agents.DialRemoteStore(addr, aopts...)
	if err != nil {
		return fmt.Errorf("geomancy: connecting engine store: %w", err)
	}
	s.store = store
	return nil
}

// monitorBatchSize is the monitoring agents' telemetry batch size in the
// distributed deployment.
const monitorBatchSize = 32

// pushRetrier is the loop's LayoutPusher: Daemon.PushLayout under the
// retry policy, so a transient fault on a control-agent connection does
// not cost a decision cycle (pushes replay safely; see PushLayoutRetry).
type pushRetrier struct {
	d      *agents.Daemon
	policy agents.RetryPolicy
	rng    *rng.RNG
}

func (p pushRetrier) PushLayout(layout map[int64]string) (int, error) {
	return p.d.PushLayoutRetry(layout, p.policy, p.rng)
}

// teardownAgents closes whatever part of the distributed plane is up,
// tolerating an unreachable daemon (final flushes are then abandoned).
func (s *System) teardownAgents() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil && !errors.Is(err, agents.ErrUnavailable) {
			first = err
		}
	}
	if s.monitors != nil {
		keep(s.monitors.Close())
	}
	if s.control != nil {
		keep(s.control.Close())
	}
	if s.store != nil {
		keep(s.store.Close())
	}
	if s.daemon != nil {
		keep(s.daemon.Close())
	}
	return first
}

// Run executes one workload run. During the bootstrap phase only telemetry
// is collected; afterwards the engine trains and retunes the layout on its
// cooldown schedule. Run after Close returns ErrClosed.
func (s *System) Run() (RunStats, error) {
	return s.RunContext(context.Background())
}

// RunContext is Run with cancellation: ctx is checked between workload
// accesses, between training epochs, and between candidate-scoring
// batches, so a cancelled call returns promptly with an error satisfying
// errors.Is(err, ctx.Err()) and without applying a partial layout.
func (s *System) RunContext(ctx context.Context) (RunStats, error) {
	if s.closed {
		return RunStats{}, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return RunStats{}, err
	}
	s.midRun = true
	stats, err := s.loop.RunOnceContext(ctx)
	if err != nil {
		return stats, err
	}
	s.midRun = false
	s.stats = append(s.stats, stats)
	return stats, nil
}

// RunN executes n workload runs, stopping at the first error.
func (s *System) RunN(n int) ([]RunStats, error) {
	return s.RunNContext(context.Background(), n)
}

// RunNContext executes n workload runs under ctx, stopping at the first
// error; the completed runs' statistics are returned alongside it.
func (s *System) RunNContext(ctx context.Context, n int) ([]RunStats, error) {
	out := make([]RunStats, 0, n)
	for i := 0; i < n; i++ {
		st, err := s.RunContext(ctx)
		if err != nil {
			return out, err
		}
		out = append(out, st)
	}
	return out, nil
}

// MeanThroughput returns the mean per-access throughput observed so far,
// in bytes/second.
func (s *System) MeanThroughput() float64 {
	if s.tpCount == 0 {
		return 0
	}
	return s.tpSum / float64(s.tpCount)
}

// Stats returns per-run summaries in order.
func (s *System) Stats() []RunStats { return append([]RunStats(nil), s.stats...) }

// Movements returns the engine's layout-change history.
func (s *System) Movements() []MovementEvent { return s.loop.Movements() }

// TrainLog returns the engine's training reports.
func (s *System) TrainLog() []TrainReport { return s.loop.TrainLog() }

// Layout returns the current file→device placement.
func (s *System) Layout() map[int64]string { return s.cluster.Layout() }

// Devices returns the storage-device names.
func (s *System) Devices() []string { return s.cluster.DeviceNames() }

// Policy returns the display name of the placement policy driving the
// system (e.g. "Geomancy dynamic" for the default).
func (s *System) Policy() string { return s.loop.Policy.Name() }

// Shards returns the sharded coordinator's partition width, or 0 when
// the system runs unsharded (no WithShards).
func (s *System) Shards() int { return s.shards }

// Telemetry returns the number of access records collected.
func (s *System) Telemetry() int { return s.db.Len() }

// Metrics returns the registry installed with WithTelemetry, or nil.
func (s *System) Metrics() *Metrics { return s.metrics }

// Skipped returns every decision cycle served in degraded mode: the
// distributed plane was unreachable, so the last-known layout was kept.
// Always empty without WithDistributed.
func (s *System) Skipped() []SkippedDecision { return s.loop.Skipped() }

// ListenAddr returns the Interface Daemon's bound address ("" without
// WithDistributed) — useful with WithListenAddr("127.0.0.1:0") to learn
// the ephemeral port.
func (s *System) ListenAddr() string { return s.daemonAddr }

// FaultStats returns the faults injected so far; zero without
// WithFaultInjection.
func (s *System) FaultStats() FaultStats {
	if s.fnet == nil {
		return FaultStats{}
	}
	return s.fnet.Stats()
}

// buildSnapshot captures the complete dynamic state of the system. The
// replay WAL is synced first so the recorded watermark only covers
// durable records; memory databases embed the records they retain, and
// how many they appended, in the snapshot instead. The per-run stats and
// the loop's logs are the system's live slices (Loop.State), so the
// snapshot is valid until the next run: every caller encodes it at once.
func (s *System) buildSnapshot() (*checkpoint.Snapshot, error) {
	if s.closed {
		return nil, ErrClosed
	}
	if s.midRun {
		return nil, fmt.Errorf("geomancy: cannot snapshot mid-run state (last run was aborted)")
	}
	var engine core.EngineState
	if s.loop.Engine != nil {
		var err error
		engine, err = s.loop.Engine.State()
		if err != nil {
			return nil, fmt.Errorf("geomancy: capturing engine state: %w", err)
		}
	}
	if s.replayPath != "" {
		if err := s.db.Sync(); err != nil {
			return nil, fmt.Errorf("geomancy: syncing replay log: %w", err)
		}
	}
	wstate, err := s.runner.MarshalState()
	if err != nil {
		return nil, fmt.Errorf("geomancy: capturing workload state: %w", err)
	}
	pstate, err := s.loop.Policy.MarshalState()
	if err != nil {
		return nil, fmt.Errorf("geomancy: capturing policy state: %w", err)
	}
	snap := &checkpoint.Snapshot{
		Seed:            s.seed,
		Runs:            len(s.stats),
		TpSum:           s.tpSum,
		TpCount:         s.tpCount,
		Stats:           s.stats,
		Engine:          engine,
		Loop:            s.loop.State(),
		Cluster:         s.cluster.State(),
		WorkloadName:    s.runner.Name(),
		Workload:        wstate,
		PolicyName:      s.loop.Policy.Name(),
		Policy:          pstate,
		ReplayWatermark: s.db.Watermark(),
	}
	if s.replayPath == "" {
		snap.Accesses, snap.AccessCount = s.db.All(), s.db.Len()
	}
	return snap, nil
}

// Checkpoint writes a snapshot of the running system to path, atomically
// (write-rename-fsync): a crash mid-checkpoint leaves either the previous
// file or the new one, never a torn state. The system keeps running; a
// later Restore with the same options resumes from this point
// bit-for-bit.
func (s *System) Checkpoint(path string) error {
	snap, err := s.buildSnapshot()
	if err != nil {
		return err
	}
	return checkpoint.Save(path, snap)
}

// SaveCheckpoint writes the next rotating snapshot into the directory
// configured with WithCheckpointDir, pruning old ones, and returns the
// path written. Without a configured directory it returns an error; use
// Checkpoint for an explicit path instead.
func (s *System) SaveCheckpoint() (string, error) {
	if s.ckptStore == nil {
		return "", fmt.Errorf("geomancy: no checkpoint directory configured (use WithCheckpointDir)")
	}
	snap, err := s.buildSnapshot()
	if err != nil {
		return "", err
	}
	return s.ckptStore.Save(snap)
}

// Restore rebuilds a system from the snapshot at path. opts must repeat
// the configuration of the checkpointed run (same seed, devices, files,
// model, replay path, ...; WithParallelism may differ, it never affects a
// result): the system is first assembled
// from them, then every piece of dynamic state — RNG streams, trained
// model and normalization, cluster clock and layout, workload cursor,
// loop counters — is overwritten from the snapshot, after which Run
// continues the trajectory of the interrupted system exactly. A snapshot
// whose seed disagrees with the options is rejected.
func Restore(path string, opts ...Option) (*System, error) {
	snap, err := checkpoint.Load(path)
	if err != nil {
		return nil, err
	}
	return restoreSystem(snap, opts)
}

// RestoreLatest resumes from the newest intact snapshot in dir, falling
// back to the previous one when the latest is corrupt (errors.Is(err,
// ErrCorrupt) only surfaces when every snapshot fails validation).
// An empty directory returns ErrNoCheckpoint — callers typically fall
// back to New.
func RestoreLatest(dir string, opts ...Option) (*System, error) {
	store, err := checkpoint.NewStore(dir)
	if err != nil {
		return nil, err
	}
	snap, _, err := store.Latest()
	if err != nil {
		return nil, err
	}
	return restoreSystem(snap, opts)
}

func restoreSystem(snap *checkpoint.Snapshot, opts []Option) (*System, error) {
	sys, err := New(opts...)
	if err != nil {
		return nil, err
	}
	if err := sys.applySnapshot(snap); err != nil {
		sys.closed = true // skip the Close-time snapshot of half-restored state
		sys.teardownAgents()
		sys.db.Close()
		return nil, err
	}
	return sys, nil
}

// applySnapshot overwrites the freshly built system's dynamic state. A
// snapshot the options do not describe — another seed, scenario or policy —
// is refused before anything is touched, the replay log above all: a
// refused restore leaves the WAL as it found it.
func (s *System) applySnapshot(snap *checkpoint.Snapshot) error {
	if snap.Seed != s.seed {
		return fmt.Errorf("geomancy: snapshot was taken with seed %d, options configure seed %d", snap.Seed, s.seed)
	}
	if snap.WorkloadName != s.runner.Name() {
		return fmt.Errorf("geomancy: snapshot was taken under scenario %q, options configure %q",
			snap.WorkloadName, s.runner.Name())
	}
	if snap.PolicyName != s.loop.Policy.Name() {
		return fmt.Errorf("geomancy: snapshot was taken under policy %q, options configure %q",
			snap.PolicyName, s.loop.Policy.Name())
	}
	if s.replayPath == "" {
		count := snap.AccessCount
		if count == 0 {
			// Written before the count was recorded, when a snapshot
			// embedded every record.
			count = len(snap.Accesses)
		}
		if err := s.db.Bulkload(snap.Accesses, count, snap.ReplayWatermark); err != nil {
			return fmt.Errorf("geomancy: restoring replay records: %w", err)
		}
	} else {
		// Drop WAL records written after the snapshot; the resumed run
		// regenerates them with identical sequence numbers.
		if err := s.db.TruncateTo(snap.ReplayWatermark); err != nil {
			return fmt.Errorf("geomancy: truncating replay log: %w", err)
		}
	}
	if err := s.cluster.RestoreState(snap.Cluster); err != nil {
		return fmt.Errorf("geomancy: restoring cluster: %w", err)
	}
	if err := s.runner.UnmarshalState(snap.Workload); err != nil {
		return fmt.Errorf("geomancy: restoring workload: %w", err)
	}
	if err := s.loop.Policy.UnmarshalState(snap.Policy); err != nil {
		return fmt.Errorf("geomancy: restoring policy: %w", err)
	}
	if s.loop.Engine != nil {
		if err := s.loop.Engine.RestoreState(snap.Engine); err != nil {
			return fmt.Errorf("geomancy: restoring engine: %w", err)
		}
	}
	s.loop.RestoreState(snap.Loop)
	s.tpSum = snap.TpSum
	s.tpCount = snap.TpCount
	s.stats = append([]RunStats(nil), snap.Stats...)
	return nil
}

// Close flushes and stops the distributed agents (when running) and
// releases the replay database; with a checkpoint directory configured it
// first flushes a final snapshot, so a clean shutdown is always
// resumable. Close is idempotent: the second and later calls are no-ops
// returning nil — in particular they never rewrite the final snapshot.
// Run after Close returns ErrClosed.
func (s *System) Close() error {
	if s.closed {
		return nil
	}
	var ckptErr error
	// midRun guards against snapshotting torn state: a run aborted by
	// cancellation (or an error) leaves the RNG streams and virtual clock
	// mid-stride, and a snapshot of that point would resume a different
	// trajectory than the uninterrupted run. Only run boundaries are
	// snapshotted.
	if s.ckptStore != nil && !s.midRun {
		if snap, err := s.buildSnapshot(); err != nil {
			ckptErr = err
		} else if _, err := s.ckptStore.Save(snap); err != nil {
			ckptErr = err
		}
	}
	s.closed = true
	err := s.teardownAgents()
	if dbErr := s.db.Close(); dbErr != nil && err == nil {
		err = dbErr
	}
	if err == nil {
		err = ckptErr
	}
	return err
}
