package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"strconv"

	"geomancy/internal/nn"
	"geomancy/internal/policy"
	"geomancy/internal/rng"
	"geomancy/internal/storagesim"
	"geomancy/internal/telemetry"
)

// Sharded is the sharded placement coordinator (ROADMAP item 2's
// warehouse-scale decision plane): the cluster's devices are partitioned
// into device groups (storagesim.Cluster.ShardBy), and each group is one
// unit of the engine's bridge that decides only over its own devices (the
// decision body, propose.go). A unit is its group of the engine's device
// indices and its own RNG stream; everything else — the model, the device
// index space (so a candidate's fsid feature is the device's index, as it
// is unsharded), the feature cache, the full-rescan cadence, the dirty
// watermark, the validator, the summaries and the scoring pool — is the
// one engine's. That body
//
//   - routes every file to the unit owning its current device,
//   - prepares every unit from one dirty-set query of the store and one
//     ranking of the device summaries, commits once, scores every unit's
//     runs in one fan-out through the one model, and selects unit by unit;
//     each unit draws from its own stream (rng.Split of the coordinator
//     seed) and decisions come back aligned with the input, so any
//     Parallelism produces the serial layout bit-for-bit, and
//   - escalates: when a shard's best in-shard placement underperforms the
//     cluster-wide throughput digest by escalationFactor, the merge
//     attempts a cross-shard migration, admitted only while the device
//     still fits the bytes this cycle's escalations already claimed on it
//     (Cluster.CanPlace), in fixed unit order. Claims never touch
//     used-bytes and die with the cycle; the committed layout re-validates
//     in Cluster.Move.
//
// A unit scores through whatever the last fit left, finished or cancelled.
// At one shard the bridge is the one NewModel builds — one unit over every
// device on the engine's own stream — so the decisions are the unsharded
// policy's, bit for bit.
//
// Sharded itself is the policy's identity over that bridge: the embedded
// policy.Geomancy cycle over Model(), under its own name, with its own
// state blob (the partition width and every unit's stream) and per-shard
// metrics.
type Sharded struct {
	policy.Geomancy //geomancy:ephemeral stateless cycle over Model(); the shard state is the coordinator's own MarshalState

	// global bridges the engine into the loop and owns the units. The
	// engine snapshots itself through the engine half of the checkpoint.
	global *EngineModel
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
// makes each a unit of the engine's bridge: the group's engine device
// indices, ascending, and a stream of its own, split from cfg.Seed. cfg
// configures the one engine, which sees every device, trains, and
// validates and ranks every unit's candidates against the cluster. At
// n = 1 the bridge is the engine's lone unit, as NewModel builds it.
// Every caller passes a nil assign but tests; the parameter stays only
// until the benchmark's traced pass stops passing it.
func NewSharded(db TelemetryStore, cluster *storagesim.Cluster, n int, assign func(string) int, cfg Config) (*Sharded, error) {
	groups, err := cluster.ShardBy(n, assign)
	if err != nil {
		return nil, err
	}
	e, err := NewEngine(db, cluster.DeviceNames(), cfg)
	if err != nil {
		return nil, err
	}
	m := e.NewModel(cluster)
	s := &Sharded{global: m}
	s.Geomancy.Model = m
	if len(groups) == 1 {
		return s, nil
	}
	m.units, m.owner = make([]shardUnit, len(groups)), make([]int, len(e.devices))
	for i, group := range groups {
		u := &m.units[i]
		for _, name := range group {
			j := e.devIndex[name]
			u.devs = append(u.devs, j)
			m.owner[j] = i
		}
		u.rng = shardStream(e.cfg, i)
	}
	return s, nil
}

// shardStream returns shard i's stream: rng.Split(cfg.Seed, i), advanced
// past the draws initialising a network of cfg's model takes from it (one
// Float64 per dense weight, in layer order: nn.BuildModel, mat.XavierInit),
// which is where the stream of a shard that built an engine of its own
// began. Biases start at zero and draw nothing.
func shardStream(cfg Config, i int) *rng.RNG {
	r := rng.New(rng.Split(cfg.Seed, i))
	specs, _ := nn.ModelSpec(cfg.ModelNumber) // NewEngine built this model
	in := featureCount
	for _, spec := range specs {
		out := spec.Fixed
		if out == 0 {
			out = spec.UnitsZ * featureCount
		}
		for range in * out {
			r.Float64()
		}
		in = out
	}
	return r
}

// Model returns the policy-plane bridge: it trains the engine and decides
// over the shard units; the loop drains training reports through it.
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

// route hands every unit its tasks, one per file it owns, in input order,
// each naming its file by index in files: a lone unit every file, and
// a coordinator's units their counted shares of one array. A file on a
// device no unit owns stops it before any list is handed out.
func (m *EngineModel) route(files []policy.FileInfo) error {
	tasks, idx := make([]scoreTask, len(files)), m.Engine.devIndex
	if m.owner == nil {
		for i := range tasks {
			tasks[i].file = int32(i)
		}
		m.units[0].tasks = tasks
		return nil
	}
	counts := make([]int, len(m.units))
	for _, f := range files {
		j, ok := idx[f.Device]
		if !ok {
			return fmt.Errorf("core: file %d is on device %q, which no shard owns", f.ID, f.Device)
		}
		counts[m.owner[j]]++
	}
	for i, n := range counts {
		m.units[i].tasks, tasks = tasks[:0:n], tasks[n:]
	}
	for i, f := range files {
		u := &m.units[m.owner[idx[f.Device]]]
		u.tasks = append(u.tasks, scoreTask{file: int32(i)})
	}
	return nil
}

// merge escalates, when there is more than one unit, placements the owning
// shard clearly cannot serve, unit by unit in task order, and returns the
// layout map of preds, the decisions aligned with the working set. The
// bytes escalations claim on a device live in a map that dies with it.
func (m *EngineModel) merge(preds []policy.Prediction) map[int64]string {
	var digest *storagesim.DeviceSummary
	var claims map[string]int64
	if len(m.units) > 1 {
		digest, claims = m.throughputDigest(), make(map[string]int64)
	}
	files := m.Engine.prep.files
	for i, u := range m.units {
		u.tele.decisions.Add(uint64(len(u.tasks)))
		for _, t := range u.tasks {
			m.escalate(i, &preds[t.file], digest, files[t.file].Size, claims)
		}
	}
	layout := make(map[int64]string, len(preds))
	for _, d := range preds {
		layout[d.FileID] = d.Chosen
	}
	return layout
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
	owner := m.owner[m.Engine.devIndex[digest.Name]]
	if owner == i {
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

// shardedState is the gob wire form of the coordinator's own state: the
// partition width (restores reject a mismatch — a snapshot taken under a
// different sharding cannot restore silently) and one stream per shard, in
// shard order; at one shard that stream is the engine's. Everything else a
// decision keeps, the cadence and the dirty watermark included, is the
// engine's, and rides the checkpoint's engine half. The device groups need
// no identity on the wire: the shard count, the cluster's device names and
// the engine's device order fix them, and each is checked on restore.
type shardedState struct {
	Shards  int
	Streams []uint64
}

// MarshalState implements policy.Policy.
func (s *Sharded) MarshalState() ([]byte, error) {
	units := s.global.units
	st := shardedState{Shards: len(units), Streams: make([]uint64, len(units))}
	for i := range units {
		st.Streams[i] = units[i].rng.State()
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("core: encoding sharded state: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalState implements policy.Policy. A blob without one stream per
// shard — every form written while each shard kept its own cadence and
// watermark, whose restore would resume a pruned run (TopK > 0) on a zero
// cadence — is refused with policy.ErrBadState, and so is one that does
// not decode; one of another partition width is refused too. Either way
// the refusal comes before any stream moves.
func (s *Sharded) UnmarshalState(data []byte) error {
	var st shardedState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("%w: %v", policy.ErrBadState, err)
	}
	if len(st.Streams) != st.Shards {
		return fmt.Errorf("%w: %d streams for %d shards; the snapshot predates one engine behind every shard", policy.ErrBadState, len(st.Streams), st.Shards)
	}
	units := s.global.units
	if st.Shards != len(units) {
		return fmt.Errorf("core: snapshot has %d shards, coordinator has %d — rebuild with the snapshot's shard count", st.Shards, len(units))
	}
	for i, state := range st.Streams {
		units[i].rng.SetState(state)
	}
	return nil
}

var (
	_ policy.Policy   = (*Sharded)(nil)
	_ policy.Explorer = (*Sharded)(nil)
)
