package core

import (
	"bytes"
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
// into device groups (storagesim.Cluster.ShardBy), and each group owns a
// lightweight engine that decides only over its own devices — one unit of
// the bridge's decision body (propose.go). That body
//
//   - routes every file to the unit owning its current device,
//   - prepares every unit's engine over one dirty-set query of the store,
//     commits every unit, scores every unit's runs in one fan-out over the
//     scoring pool every shard engine shares with the global engine,
//     through the one model, and selects unit by unit; each shard draws
//     from its own RNG stream (rng.Split of the coordinator seed) and units
//     merge in fixed index order, so any Parallelism produces the serial
//     layout bit-for-bit, and
//   - escalates: when a shard's best in-shard placement underperforms the
//     cluster-wide throughput digest by escalationFactor, the merge
//     attempts a cross-shard migration, admitted only while the device
//     still fits the bytes this cycle's escalations already claimed on it
//     (Cluster.CanPlace). Claims never touch used-bytes and die with the
//     cycle; the committed layout re-validates in Cluster.Move.
//
// There is one model: the global engine fits it, and every shard engine
// scores through it by pointer, so a shard decision reads whatever the
// last fit left, finished or cancelled. Shard engines never train. At one
// shard the unit's engine IS the global engine and the bridge is the one
// NewModel builds, so the decisions are the unsharded policy's, bit for
// bit.
//
// Sharded itself is the policy's identity over that bridge: the embedded
// policy.Geomancy cycle over Model(), under its own name, with its own
// state blob and per-shard metrics.
type Sharded struct {
	policy.Geomancy //geomancy:ephemeral stateless cycle over Model(); the shard state is the coordinator's own MarshalState

	// global bridges the global engine into the loop and owns the units.
	// That engine trains, sees every device, owns the model and the scoring
	// pool, and snapshots itself through the engine half of the checkpoint.
	global *EngineModel
}

// cycleFeed is one decision's view of the store's change tracking: a
// single watermark, taken before any dirty set is asked for, and one
// FilesChangedSince query per distinct unit watermark (in practice one),
// whose ascending list every unit's engine prepared at that watermark reads
// and none writes. The lists are dropped once the decision is prepared.
type cycleFeed struct {
	ChangeTracker
	mark    uint64
	changed map[uint64][]int64
}

// Watermark returns the store's watermark when the decision's prepare
// began.
func (f *cycleFeed) Watermark() uint64 { return f.mark }

// FilesChangedSince asks the store once per seq a decision passes.
func (f *cycleFeed) FilesChangedSince(seq uint64) []int64 {
	ids, ok := f.changed[seq]
	if !ok {
		ids = f.ChangeTracker.FilesChangedSince(seq)
		f.changed[seq] = ids
	}
	return ids
}

// shardUnit is one unit of the decision body: its engine, over the shard's
// device group (or every device, for a lone unit), and the shard's
// counters.
type shardUnit struct {
	engine *Engine
	tele   shardTelemetry //geomancy:ephemeral metrics counters, re-installed by SetMetrics
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
// builds one shard engine over each group, each a unit of the global
// engine's bridge. cfg configures the global engine; shard engines inherit
// it with a per-shard RNG stream split from cfg.Seed, read the cluster's
// device summaries and validator as the global engine does, and score
// through the global engine's model on its scoring pool. At n = 1 the
// bridge is the global engine's lone unit, as NewModel builds it. Every
// caller passes a nil assign; the parameter stays only until the
// benchmark's traced pass stops passing it.
func NewSharded(db TelemetryStore, cluster *storagesim.Cluster, n int, assign func(string) int, cfg Config) (*Sharded, error) {
	groups, err := cluster.ShardBy(n, assign)
	if err != nil {
		return nil, err
	}
	globalEngine, err := NewEngine(db, cluster.DeviceNames(), cfg)
	if err != nil {
		return nil, err
	}
	m := globalEngine.NewModel(cluster)
	s := &Sharded{global: m}
	s.Geomancy.Model = m
	if len(groups) == 1 {
		return s, nil
	}
	m.units, m.devShard = nil, make(map[string]int)
	for i, group := range groups {
		for _, name := range group {
			m.devShard[name] = i
		}
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
		m.units = append(m.units, shardUnit{engine: eng})
	}
	return s, nil
}

// Model returns the policy-plane bridge: it trains the global engine and
// decides over the shard units; the loop drains training reports through
// it.
func (s *Sharded) Model() *EngineModel { return s.global }

// SetMetrics installs per-shard decision/escalation/migration counters,
// labeled {shard="i"}. A nil registry detaches.
func (s *Sharded) SetMetrics(reg *telemetry.Registry) {
	units := s.global.units
	for i := range units {
		l := telemetry.L("shard", strconv.Itoa(i))
		units[i].tele = shardTelemetry{
			decisions:   reg.Counter(telemetry.MetricShardDecisions, l),
			escalations: reg.Counter(telemetry.MetricShardEscalations, l),
			migrations:  reg.Counter(telemetry.MetricShardMigrations, l),
		}
	}
}

// route cuts files into one list per unit, preserving input order, in one
// array, and hands each unit's engine its list; a file on a device no unit
// owns stops it before any list is handed out.
func (m *EngineModel) route(files []policy.FileInfo) error {
	counts := make([]int, len(m.units))
	for _, f := range files {
		i, ok := m.devShard[f.Device]
		if !ok {
			return fmt.Errorf("core: file %d is on device %q, which no shard owns", f.ID, f.Device)
		}
		counts[i]++
	}
	routed := make([]policy.FileInfo, len(files))
	for i, n := range counts {
		m.units[i].engine.prep.files, routed = routed[:0:n], routed[n:]
	}
	for _, f := range files {
		p := &m.units[m.devShard[f.Device]].engine.prep
		p.files = append(p.files, f)
	}
	return nil
}

// merge merges the units' decisions in fixed unit order, escalating, when
// there is more than one unit, placements the owning shard clearly cannot
// serve. A unit's decisions are positionally aligned with its engine's
// prepared files. The merged list is ordered by unit, preserving input
// order within each; a lone unit's is its own. The bytes escalations claim
// on a device live in a map that dies with the merge.
func (m *EngineModel) merge(decs [][]policy.Prediction) (map[int64]string, []policy.Prediction) {
	var digest *storagesim.DeviceSummary
	var claims map[string]int64
	if len(decs) > 1 {
		digest, claims = m.throughputDigest(), make(map[string]int64)
	}
	n := 0
	for i := range m.units {
		m.units[i].tele.decisions.Add(uint64(len(decs[i])))
		files := m.units[i].engine.prep.files
		for k := range decs[i] {
			m.escalate(i, &decs[i][k], digest, files[k].Size, claims)
		}
		n += len(decs[i])
	}
	decisions := decs[0]
	if len(decs) > 1 {
		decisions = make([]policy.Prediction, 0, n)
		for _, d := range decs {
			decisions = append(decisions, d...)
		}
	}
	layout := make(map[int64]string, n)
	for _, d := range decisions {
		layout[d.FileID] = d.Chosen
	}
	return layout, decisions
}

// throughputDigest returns the cluster-wide best-device digest the
// escalation check compares against: the available, writable device with
// the highest recent effective throughput (ties break toward profile
// order). Nil when nothing qualifies or the engine models latency —
// the digest is a throughput quantity, so under the latency target
// escalation is disabled rather than comparing unlike metrics.
func (m *EngineModel) throughputDigest() *storagesim.DeviceSummary {
	if m.Engine.cfg.Target != TargetThroughput {
		return nil
	}
	sums := m.cluster.DeviceSummaries()
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
func (m *EngineModel) escalate(i int, d *policy.Prediction, digest *storagesim.DeviceSummary, size int64, claims map[string]int64) {
	if digest == nil || d.Random {
		return
	}
	owner, ok := m.devShard[digest.Name]
	if !ok || owner == i {
		return
	}
	if d.Predicted <= 0 || digest.RecentThroughput <= escalationFactor*d.Predicted {
		return
	}
	m.units[i].tele.escalations.Inc()
	if m.cluster.CanPlace(digest.Name, claims[digest.Name]+size) != nil {
		// The remote device cannot cover the file this cycle (capacity
		// already claimed, gone read-only, ...): keep the in-shard choice.
		return
	}
	claims[digest.Name] += size
	d.Chosen = digest.Name
	m.units[owner].tele.migrations.Inc()
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
	units := s.global.units
	st := shardedState{Shards: len(units)}
	for i := range units {
		var us shardUnitState
		if len(units) > 1 { // at one shard the unit's engine is the global one
			eng := units[i].engine
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
	units := s.global.units
	if st.Shards != len(units) || len(st.Units) != len(units) {
		return fmt.Errorf("core: snapshot has %d shards, coordinator has %d — rebuild with the snapshot's shard count", st.Shards, len(units))
	}
	if len(units) == 1 {
		return nil // the unit's engine is the global one
	}
	for i, us := range st.Units {
		if us.Engine == nil {
			return fmt.Errorf("%w: shard %d carries no engine state", policy.ErrBadState, i)
		}
	}
	for i, us := range st.Units {
		eng := units[i].engine
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
