package core

import (
	"context"
	"errors"
	"fmt"

	"geomancy/internal/policy"
	"geomancy/internal/storagesim"
)

// EngineModel adapts the DRL engine to the policy plane's Model
// contract, so policy.Geomancy and policy.Online can drive the engine
// without the policy package importing core, and owns the one decision
// body (propose.go) over its units: the lone engine's one unit over every
// device, or a sharded coordinator's device groups. Training reports
// accumulate inside the bridge; the loop (or any other caller) drains them
// with Reports after each proposal.
type EngineModel struct {
	// Engine is the one engine: it trains, owns the model every unit scores
	// through, the device index space, the decision state and the scoring
	// pool.
	Engine *Engine //geomancy:ephemeral snapshots itself as the checkpoint's engine half (EngineState)
	// units decide, one device group and stream each: every device on the
	// engine's stream (NewModel), or one group per shard (NewSharded).
	units []shardUnit
	// owner maps an engine device index to its unit; nil for a lone unit,
	// which takes every file. cluster is the cluster the bridge is wired
	// to, whose summaries the escalation merge reads (sharded.go).
	owner   []int               //geomancy:ephemeral derived from the partition, rebuilt by NewSharded
	cluster *storagesim.Cluster //geomancy:ephemeral external handle, re-wired at construction

	// routeErr is the prepared decision's routing failure, which its finish
	// returns.
	routeErr error //geomancy:ephemeral the decision between its halves, rebuilt by every prepare

	// helper is closed once the helper goroutine preparing the next
	// decision (prepareAhead) is done, and nil once joined or when the
	// caller prepared it.
	helper chan struct{}

	reports []TrainReport //geomancy:ephemeral drained into the loop's serialized trainLog after every proposal
}

// NewModel bridges the engine to the policy plane as a lone unit and wires
// it to the cluster: the engine's select stage validates destinations
// against the cluster's live capacity and availability, and the cluster
// becomes the device-summary source, so candidate pruning (Config.TopK)
// ranks shortlists from live recent-throughput digests.
func (e *Engine) NewModel(cluster *storagesim.Cluster) *EngineModel {
	e.SetSummarySource(cluster.DeviceSummaries)
	e.valid = cluster.CanPlace
	m := e.lone()
	m.cluster = cluster
	return m
}

// lone returns a bridge that decides with e alone: one unit over every
// device, drawing from the engine's own stream.
func (e *Engine) lone() *EngineModel {
	devs := make([]int, len(e.devices))
	for i := range devs {
		devs[i] = i
	}
	return &EngineModel{Engine: e, units: []shardUnit{{devs: devs, rng: e.rng}}}
}

// unitOf returns the unit owning the device at engine index j.
func (m *EngineModel) unitOf(j int) int {
	if m.owner == nil {
		return 0
	}
	return m.owner[j]
}

// Retrain implements policy.Model: one full training cycle.
func (m *EngineModel) Retrain(ctx context.Context) error {
	rep, err := m.Engine.TrainContext(ctx)
	if err != nil {
		return err
	}
	m.reports = append(m.reports, rep)
	return nil
}

// Update implements policy.Model: one incremental minibatch update. An
// engine with no completed full cycle maps to policy.ErrNotReady so the
// policy plane can fall back to a retrain without importing core.
func (m *EngineModel) Update(ctx context.Context) error {
	rep, err := m.Engine.UpdateContext(ctx)
	if err != nil {
		if errors.Is(err, ErrNotTrained) {
			return fmt.Errorf("%w: %v", policy.ErrNotReady, err)
		}
		return err
	}
	m.reports = append(m.reports, rep)
	return nil
}

// Propose implements policy.Model: one batched ε-greedy proposal over
// the snapshot's working set. It finishes the decision the loop prepared
// over s.Files, joining the helper preparing it, and prepares first only
// when nothing was prepared over them (a direct caller).
func (m *EngineModel) Propose(ctx context.Context, s policy.State) (map[int64]string, []policy.Prediction, error) {
	m.join()
	if p := m.Engine.prep.files; p == nil || !sameFiles(p, s.Files) {
		m.prepare(s.Files)
	}
	return m.finish(ctx)
}

// prepareAhead prepares the next decision over files before the policy
// proposes: on one helper goroutine, to run beside the fit the policy runs
// first, at Config.Parallelism > 1, and on the caller at 1. The helper
// reads the ReplayDB, the cluster and the feature cache, never the model
// or an RNG, and commits nothing, so the proposal is the one the policy's
// fit then Propose make either way. Every prepareAhead is followed by a
// drop on the same goroutine.
func (m *EngineModel) prepareAhead(files []policy.FileInfo) {
	if m.Engine.cfg.Parallelism <= 1 {
		m.prepare(files)
		return
	}
	done := make(chan struct{})
	m.helper = done
	go func() {
		defer close(done)
		m.prepare(files)
	}()
}

// join waits for the helper preparing the decision, if one runs.
func (m *EngineModel) join() {
	if m.helper != nil {
		<-m.helper
		m.helper = nil
	}
}

// drop joins the helper and drops whatever the decision in flight left
// prepared and unfinished — a fit that failed, a policy that never
// proposed — which commits nothing.
func (m *EngineModel) drop() {
	m.join()
	m.Engine.prep.files = nil
	for i := range m.units {
		m.units[i].tasks = nil
	}
}

// sameFiles reports whether a and b are the same working set: the same
// slice of the same snapshot.
func sameFiles(a, b []policy.FileInfo) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// Reports drains the training reports accumulated since the last drain.
func (m *EngineModel) Reports() []TrainReport {
	out := m.reports
	m.reports = nil
	return out
}

// BuildPolicy is the one path from a policy name and a shard count to a
// ready policy plus the engine bridge behind it (nil for a baseline; hand
// it to Loop.SetModel): nothing more for a baseline (stochastic ones draw
// from cfg.Seed), an engine wired to the cluster and training through
// store for a learned policy, and for shards > 0 — policy.DefaultName
// only — a coordinator over that many device groups (see NewSharded).
func BuildPolicy(store TelemetryStore, cluster *storagesim.Cluster, name string, shards int, cfg Config) (policy.Policy, *EngineModel, error) {
	if shards > 0 {
		if name != "" && name != policy.DefaultName {
			return nil, nil, fmt.Errorf("core: only the %q policy shards; it cannot combine with policy %q", policy.DefaultName, name)
		}
		s, err := NewSharded(store, cluster, shards, nil, cfg)
		if err != nil {
			return nil, nil, err
		}
		return s, s.Model(), nil
	}
	var model *EngineModel
	p, err := policy.New(name, cfg.Seed, func() (policy.Model, error) {
		engine, err := NewEngine(store, cluster.DeviceNames(), cfg)
		if err != nil {
			return nil, err
		}
		model = engine.NewModel(cluster)
		return model, nil
	})
	return p, model, err
}
