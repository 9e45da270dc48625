package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"strconv"

	"geomancy/internal/policy"
	"geomancy/internal/rng"
	"geomancy/internal/storagesim"
	"geomancy/internal/telemetry"
)

// Sharded is the sharded placement coordinator (ROADMAP item 2's
// warehouse-scale decision plane): the cluster's devices are partitioned
// into device groups (storagesim.Cluster.ShardBy), each group owns a
// lightweight engine that decides only over its own devices, and the
// coordinator
//
//   - routes every file to the shard owning its current device,
//   - runs the engine's decision body on every shard: the model-free half
//     (prepare) of each shard first, on each shard engine's own prepared
//     decision over one dirty-set query of the store, then the model half:
//     every shard engine commits, every shard's scoring runs are laid into
//     one list and scored in one fan-out over the scoring pool every shard
//     engine shares with the global engine, through the one model, and
//     selection runs shard by shard; each shard draws from its own RNG
//     stream (rng.Split of the coordinator seed) and shards merge in fixed
//     index order, so any Parallelism produces the serial layout
//     bit-for-bit, and
//   - escalates: when a shard's best in-shard placement underperforms the
//     cluster-wide throughput digest by escalationFactor, the coordinator
//     attempts a cross-shard migration, admitted only while the device
//     still fits the bytes this cycle's escalations already claimed on it
//     (Cluster.CanPlace). Claims never touch used-bytes and die with the
//     cycle; the committed layout re-validates in Cluster.Move.
//
// There is one model: the global engine fits it, and every shard engine
// scores through it by pointer, so a shard decision reads whatever the
// last fit left, finished or cancelled. Shard engines never train. At one
// shard the unit's engine IS the global engine, so the same body is
// bit-identical to the unsharded policy.
//
// As a policy the coordinator is the embedded policy.Geomancy cycle over
// Model(), whose proposal is the coordinator's cycle (prepare, then
// propose), under its own name and blob.
type Sharded struct {
	policy.Geomancy //geomancy:ephemeral stateless cycle over Model(); the shard state is the coordinator's own MarshalState

	units []shardUnit

	// global bridges the global engine into the loop. That engine trains,
	// sees every device, owns the model and the scoring pool, and
	// snapshots itself through the engine half of the checkpoint.
	global  *EngineModel //geomancy:ephemeral policy-plane bridge, rebuilt by NewSharded
	cluster *storagesim.Cluster

	// devShard maps a device name to its owning shard index.
	devShard map[string]int //geomancy:ephemeral derived from the partition, rebuilt by NewSharded

	// routeErr is the prepared cycle's routing failure, which its propose
	// returns.
	routeErr error //geomancy:ephemeral the decision between its halves, rebuilt by every prepare

	// feed is the prepared cycle's view of the store's change tracking,
	// which every shard engine's prepare reads.
	feed cycleFeed //geomancy:ephemeral the decision between its halves, rebuilt by every prepare
}

// cycleFeed is one sharded cycle's view of the store's change tracking: a
// single watermark, taken before any dirty set is asked for, and one
// FilesChangedSince query per distinct shard watermark (in practice one),
// whose ascending list every shard engine prepared at that watermark reads
// and none writes. The lists are dropped once the cycle is prepared.
type cycleFeed struct {
	ChangeTracker
	mark    uint64
	changed map[uint64][]int64
}

// Watermark returns the store's watermark when the cycle's prepare began.
func (f *cycleFeed) Watermark() uint64 { return f.mark }

// FilesChangedSince asks the store once per seq a cycle passes.
func (f *cycleFeed) FilesChangedSince(seq uint64) []int64 {
	ids, ok := f.changed[seq]
	if !ok {
		ids = f.ChangeTracker.FilesChangedSince(seq)
		f.changed[seq] = ids
	}
	return ids
}

// shardUnit is one shard's decision machinery: the engine over the
// shard's device group, the files the prepared cycle routed to it (in
// input order), and the shard's counters.
type shardUnit struct {
	engine *Engine
	files  []policy.FileInfo //geomancy:ephemeral the decision between its halves, rebuilt by every prepare
	tele   shardTelemetry    //geomancy:ephemeral metrics counters, re-installed by SetMetrics
}

// shardTelemetry holds one shard's pre-resolved counters; nil until
// SetMetrics installs a registry (nil counters are no-ops).
type shardTelemetry struct {
	decisions   *telemetry.Counter
	escalations *telemetry.Counter
	migrations  *telemetry.Counter
}

// escalationFactor is the cross-shard escalation threshold: a committed
// in-shard choice is escalated to the global digest device only when the
// digest's recent throughput exceeds the chosen device's predicted
// throughput by this factor. The bar is deliberately high — escalations
// bypass the model's per-pairing prediction with a device-level digest,
// so only placements the shard is clearly unable to serve go remote.
const escalationFactor = 4.0

// NewSharded partitions the cluster into n device groups (contiguous in
// profile order, or by assign when non-nil; see storagesim.ShardBy) and
// builds one shard engine over each group. cfg configures the global
// engine; shard engines inherit it with a per-shard RNG stream split from
// cfg.Seed, read the cluster's device summaries and validator as the
// global engine does, and score through the global engine's model on its
// scoring pool. Every caller passes a nil assign; the parameter stays only until
// the benchmark's traced pass stops passing it.
func NewSharded(db TelemetryStore, cluster *storagesim.Cluster, n int, assign func(string) int, cfg Config) (*Sharded, error) {
	groups, err := cluster.ShardBy(n, assign)
	if err != nil {
		return nil, err
	}
	globalEngine, err := NewEngine(db, cluster.DeviceNames(), cfg)
	if err != nil {
		return nil, err
	}
	s := &Sharded{
		global:   globalEngine.NewModel(cluster),
		cluster:  cluster,
		devShard: make(map[string]int),
	}
	s.global.decider = s
	s.Geomancy.Model = s.global
	for i, group := range groups {
		for _, name := range group {
			s.devShard[name] = i
		}
		var u shardUnit
		if n == 1 {
			// One shard owns everything: its engine IS the global engine, so
			// the decision sequence is the unsharded policy's, bit-for-bit.
			u.engine = globalEngine
		} else {
			shardCfg := cfg
			shardCfg.Seed = rng.Split(cfg.Seed, i)
			eng, err := NewEngine(db, group, shardCfg)
			if err != nil {
				return nil, fmt.Errorf("core: shard %d engine: %w", i, err)
			}
			// The shortlist skips devices the engine does not list, so the
			// cluster-wide summaries rank only the shard's own devices.
			eng.SetSummarySource(cluster.DeviceSummaries)
			// The shard scores through the global engine's model, whose fsid
			// feature is the device's GLOBAL index. NewEngine built the shard
			// its own network, and the shard's stream starts after those
			// initialization draws; the network itself is dropped here.
			fsids := make([]int, 0, len(group))
			for _, name := range group {
				fsids = append(fsids, globalEngine.devIndex[name])
			}
			eng.fsids = fsids
			eng.valid = cluster.CanPlace
			eng.model = globalEngine.model
			eng.pool = globalEngine.pool
			u.engine = eng
		}
		s.units = append(s.units, u)
	}
	return s, nil
}

// Model returns the policy-plane bridge: it trains the global engine and
// proposes through the coordinator's cycle; the loop drains training
// reports through it.
func (s *Sharded) Model() *EngineModel { return s.global }

// SetMetrics installs per-shard decision/escalation/migration counters,
// labeled {shard="i"}. A nil registry detaches.
func (s *Sharded) SetMetrics(reg *telemetry.Registry) {
	for i := range s.units {
		l := telemetry.L("shard", strconv.Itoa(i))
		s.units[i].tele = shardTelemetry{
			decisions:   reg.Counter(telemetry.MetricShardDecisions, l),
			escalations: reg.Counter(telemetry.MetricShardEscalations, l),
			migrations:  reg.Counter(telemetry.MetricShardMigrations, l),
		}
	}
}

// A sharded decision cycle over the working set routes each file to the
// shard owning its current device, runs each shard's decision on its own
// engine and RNG stream, every shard's scoring in one fan-out, reports the
// cycle's scoring once, then merges in fixed shard order with cross-shard
// escalation. The merged decision list is ordered by shard, preserving
// input file order within each shard. The bytes escalations claim on a
// device live in a map that dies with the cycle.

// prepare runs the model-free half of a cycle: it routes files to their
// owning shards, preserving input order, into one array cut per shard, and
// prepares every shard engine's decision over its files, all from one view
// of the store's change tracking. A file no shard owns stops the routing;
// the cycle's propose reports it.
func (s *Sharded) prepare(files []policy.FileInfo) {
	s.routeErr = nil
	counts := make([]int, len(s.units))
	for _, f := range files {
		i, ok := s.devShard[f.Device]
		if !ok {
			s.routeErr = fmt.Errorf("core: file %d is on device %q, which no shard owns", f.ID, f.Device)
			return
		}
		counts[i]++
	}
	routed := make([]policy.FileInfo, len(files))
	for i, n := range counts {
		s.units[i].files, routed = routed[:0:n], routed[n:]
	}
	for _, f := range files {
		u := &s.units[s.devShard[f.Device]]
		u.files = append(u.files, f)
	}
	var feed ChangeTracker
	if t := s.global.Engine.tracker; t != nil {
		if s.feed.changed == nil {
			s.feed.changed = make(map[uint64][]int64)
		}
		s.feed.ChangeTracker, s.feed.mark = t, t.Watermark()
		feed = &s.feed
	}
	for i := range s.units {
		u := &s.units[i]
		u.engine.prepareFrom(u.files, feed)
	}
	clear(s.feed.changed)
}

// propose runs the model half of the cycle prepare left: every shard
// engine commits, every shard's runs are scored in one fan-out and the
// scoring reported once, then each shard selects, in shard order, and the
// merge follows. The routed files and the cycle's score slice are dropped
// with the cycle.
func (s *Sharded) propose(ctx context.Context) (map[int64]string, []policy.Prediction, error) {
	defer func() {
		for i := range s.units {
			s.units[i].files = nil
		}
	}()
	if s.routeErr != nil {
		return nil, nil, s.routeErr
	}
	global := s.global.Engine
	if !global.trained { // one model behind every shard
		return nil, nil, ErrNotTrained
	}
	// A shard engine touches only its own entries and stream, so the shard
	// order of the commits and of the selections is free; every decision
	// is made before the first escalation claims anything.
	pool := global.pool
	pool.spans = pool.spans[:0]
	rows := 0
	for i := range s.units {
		e := s.units[i].engine
		e.commit()
		rows = e.layRuns(rows)
	}
	pool.scores = make([]float64, rows)
	defer func() { pool.scores = nil }()
	var tally scoreTally
	if err := pool.fanOut(ctx, global.cfg.Parallelism, rows, &tally); err != nil {
		return nil, nil, err
	}
	global.metrics.observeScoring(tally)
	decs := make([][]policy.Prediction, len(s.units))
	for i := range s.units {
		e := s.units[i].engine
		decs[i] = e.selectLayout()
		e.prep.files, e.prep.tasks = nil, nil
	}
	layout, decisions := s.merge(decs)
	return layout, decisions, nil
}

// merge merges the shards' decisions in fixed shard order, escalating
// placements the owning shard clearly cannot serve. A shard's decisions
// are positionally aligned with the files routed to it.
func (s *Sharded) merge(decs [][]policy.Prediction) (map[int64]string, []policy.Prediction) {
	n := 0
	for _, d := range decs {
		n += len(d)
	}
	digest := s.throughputDigest()
	claims := make(map[string]int64)
	layout := make(map[int64]string, n)
	decisions := make([]policy.Prediction, 0, n)
	for i := range s.units {
		s.units[i].tele.decisions.Add(uint64(len(decs[i])))
		for k := range decs[i] {
			d := &decs[i][k]
			s.escalate(i, d, digest, s.units[i].files[k].Size, claims)
			layout[d.FileID] = d.Chosen
		}
		decisions = append(decisions, decs[i]...)
	}
	return layout, decisions
}

// throughputDigest returns the cluster-wide best-device digest the
// escalation check compares against: the available, writable device with
// the highest recent effective throughput (ties break toward profile
// order). Nil when nothing qualifies or the engine models latency —
// the digest is a throughput quantity, so under the latency target
// escalation is disabled rather than comparing unlike metrics.
func (s *Sharded) throughputDigest() *storagesim.DeviceSummary {
	if s.global.Engine.cfg.Target != TargetThroughput {
		return nil
	}
	sums := s.cluster.DeviceSummaries()
	var best *storagesim.DeviceSummary
	for i := range sums {
		d := &sums[i]
		if !d.Available || d.ReadOnly {
			continue
		}
		if best == nil || d.RecentThroughput > best.RecentThroughput {
			best = d
		}
	}
	return best
}

// escalate applies the cross-shard escalation rule to one decision owned
// by shard i: when the globally best device belongs to another shard and
// its digest throughput exceeds the chosen device's prediction by
// escalationFactor, override the placement if the device can take the
// file on top of the bytes claims already holds for it this cycle, and
// add the file's size to those claims. Claims gate admission only; used
// bytes change when Cluster.Move commits the layout. Exploration
// decisions never escalate — they exist to probe, not to optimize — and
// a decision with no usable prediction for its choice stays put.
func (s *Sharded) escalate(i int, d *policy.Prediction, digest *storagesim.DeviceSummary, size int64, claims map[string]int64) {
	if digest == nil || d.Random {
		return
	}
	owner, ok := s.devShard[digest.Name]
	if !ok || owner == i {
		return
	}
	if d.Predicted <= 0 || digest.RecentThroughput <= escalationFactor*d.Predicted {
		return
	}
	s.units[i].tele.escalations.Inc()
	if s.cluster.CanPlace(digest.Name, claims[digest.Name]+size) != nil {
		// The remote device cannot cover the file this cycle (capacity
		// already claimed, gone read-only, ...): keep the in-shard choice.
		return
	}
	claims[digest.Name] += size
	d.Chosen = digest.Name
	s.units[owner].tele.migrations.Inc()
}

// ShardedPolicyName is the coordinator's catalogue identity.
const ShardedPolicyName = "sharded-geomancy"

// Name implements policy.Policy.
func (s *Sharded) Name() string { return ShardedPolicyName }

// shardedState is the gob wire form of the coordinator's mutable state:
// the partition width (restores reject a mismatch — a snapshot taken
// under a different sharding cannot restore silently) and one entry per
// shard unit. The global engine rides the checkpoint's engine half.
type shardedState struct {
	Shards int
	Units  []shardUnitState
}

// shardUnitState is one unit's wire form: the shard engine's own state —
// nil at one shard, where the unit's engine is the global one. The device
// group needs no identity on the wire: the shard count, the cluster's
// device names and the global engine's device order fix it, and each is
// checked on restore. Older blobs also carry a Shard field, which gob
// drops.
type shardUnitState struct {
	Engine *shardEngineState
}

// shardEngineState is what a shard engine owns: its RNG stream and its
// pruning bookkeeping. The model it scores through is the global engine's,
// which the checkpoint's engine half carries once. Gob matches fields by
// name, so a unit that carries a full EngineState, as older snapshots do,
// restores into this and its copy of the model is dropped.
type shardEngineState struct {
	RNG           uint64
	DecisionCount uint64
	LastWatermark uint64
}

// MarshalState implements policy.Policy.
func (s *Sharded) MarshalState() ([]byte, error) {
	st := shardedState{Shards: len(s.units)}
	for i := range s.units {
		var us shardUnitState
		if len(s.units) > 1 { // at one shard the unit's engine is the global one
			eng := s.units[i].engine
			us.Engine = &shardEngineState{
				RNG:           eng.rng.State(),
				DecisionCount: eng.decisionCount,
				LastWatermark: eng.lastWatermark,
			}
		}
		st.Units = append(st.Units, us)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("core: encoding sharded state: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalState implements policy.Policy. The blob must describe the
// same partition width this coordinator was built with, and every unit is
// checked before any shard engine is restored: a refused blob changes
// nothing.
func (s *Sharded) UnmarshalState(data []byte) error {
	var st shardedState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("%w: %v", policy.ErrBadState, err)
	}
	if st.Shards != len(s.units) || len(st.Units) != len(s.units) {
		return fmt.Errorf("core: snapshot has %d shards, coordinator has %d — rebuild with the snapshot's shard count", st.Shards, len(s.units))
	}
	if len(s.units) == 1 {
		return nil // the unit's engine is the global one
	}
	for i, us := range st.Units {
		if us.Engine == nil {
			return fmt.Errorf("%w: shard %d carries no engine state", policy.ErrBadState, i)
		}
	}
	for i, us := range st.Units {
		eng := s.units[i].engine
		eng.rng.SetState(us.Engine.RNG)
		eng.decisionCount = us.Engine.DecisionCount
		eng.lastWatermark = us.Engine.LastWatermark
		clear(eng.cache)
	}
	return nil
}

var (
	_ policy.Policy   = (*Sharded)(nil)
	_ policy.Explorer = (*Sharded)(nil)
)
