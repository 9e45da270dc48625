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
// without the policy package importing core. Training reports accumulate
// inside the bridge; the loop (or any other driver) drains them with
// Reports after each proposal.
type EngineModel struct {
	// Engine is the engine that trains: the only one when unsharded, the
	// global one behind a sharded coordinator.
	Engine *Engine
	// decider produces a proposal's decisions: the engine's own body, or
	// the coordinator's over its shard engines.
	decider decider

	reports []TrainReport
}

// decider is a decision body in its two halves (propose.go): prepare reads
// no model and commits nothing, propose finishes what prepare left under
// the model the last fit wrote and reports its scoring. *Engine and
// *Sharded implement it; one decision is in flight at a time.
type decider interface {
	prepare(files []policy.FileInfo)
	propose(ctx context.Context) (map[int64]string, []policy.Prediction, error)
}

// NewModel bridges the engine to the policy plane and wires it to the
// cluster: the engine's select stage validates destinations against the
// cluster's live capacity and availability, and the cluster becomes the
// device-summary source, so candidate pruning (Config.TopK) ranks
// shortlists from live recent-throughput digests.
func (e *Engine) NewModel(cluster *storagesim.Cluster) *EngineModel {
	e.SetSummarySource(cluster.DeviceSummaries)
	e.valid = cluster.CanPlace
	return &EngineModel{Engine: e, decider: e}
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
// the snapshot's working set.
func (m *EngineModel) Propose(ctx context.Context, s policy.State) (map[int64]string, []policy.Prediction, error) {
	m.decider.prepare(s.Files)
	return m.decider.propose(ctx)
}

// Prepare implements policy.Preparer. At Config.Parallelism > 1 it starts
// the model-free half of the proposal over s on one helper goroutine, to
// run beside the retrain the policy runs next; at 1 that half runs in the
// returned proposal's Propose, after the retrain, as Propose alone runs
// it. The helper reads the ReplayDB, the cluster and the feature caches,
// never the model or an RNG, and commits nothing until Propose, so either
// way the proposal is the one Retrain then Propose makes.
func (m *EngineModel) Prepare(s policy.State) policy.Prepared {
	p := &preparedProposal{m: m, files: s.Files}
	if m.Engine.cfg.Parallelism > 1 {
		p.done = make(chan struct{})
		go func() {
			defer close(p.done)
			m.decider.prepare(s.Files)
		}()
	}
	return p
}

// preparedProposal is a proposal Prepare started. done is closed once the
// helper has prepared it, nil when Propose prepares it itself.
type preparedProposal struct {
	m     *EngineModel
	files []policy.FileInfo
	done  chan struct{}
}

// Propose implements policy.Prepared: it joins the helper, or prepares,
// then finishes the decision under the model the retrain left.
func (p *preparedProposal) Propose(ctx context.Context) (map[int64]string, []policy.Prediction, error) {
	if p.done == nil {
		p.m.decider.prepare(p.files)
	} else {
		<-p.done
	}
	return p.m.decider.propose(ctx)
}

// Abandon implements policy.Prepared: it joins the helper and drops what
// it prepared, which the next proposal's prepare overwrites.
func (p *preparedProposal) Abandon() {
	if p.done != nil {
		<-p.done
	}
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
