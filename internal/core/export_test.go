package core

import (
	"context"
	"slices"

	"geomancy/internal/policy"
)

// DecideLayout runs one sharded decision over files, its two halves back
// to back, as the coordinator's Model().Propose does for a direct caller.
func (s *Sharded) DecideLayout(ctx context.Context, files []policy.FileInfo) (map[int64]string, []policy.Prediction, error) {
	return s.global.Propose(ctx, policy.State{Files: files})
}

// proposeShardByShard is the model half of the decision prepare left, with
// each unit's runs scored in a fan-out of their own and selected before
// the next unit's are scored, as the coordinator did before one fan-out
// scored every shard's runs: the reference that one fan-out is held to.
// The engine commits first, as in the one fan-out, so a cancelled decision
// leaves the same state either way.
func (m *EngineModel) proposeShardByShard(ctx context.Context) (map[int64]string, []policy.Prediction, error) {
	defer m.drop()
	if m.routeErr != nil {
		return nil, nil, m.routeErr
	}
	e := m.Engine
	if !e.trained {
		return nil, nil, ErrNotTrained
	}
	e.commit(m.units)
	preds := make([]policy.Prediction, len(e.prep.files))
	rows := m.layRuns()
	spans := e.pool.spans
	e.pool.scores = make([]float64, rows)
	for i := range m.units {
		u := &m.units[i]
		e.pool.spans = slices.DeleteFunc(slices.Clone(spans), func(s scoreSpan) bool { return s.u != u })
		var tally scoreTally
		if err := e.fanOut(ctx, rows, &tally); err != nil {
			return nil, nil, err
		}
		e.selectLayout(u, preds)
	}
	return m.merge(preds), preds, nil
}

// proposeScored is ProposeLayoutContext that also returns each file's
// name→score view of the scores the select stage decided over: the
// decision's scores of the file's task devices (bytes/s, denormalized and
// MAE-adjusted). Decision records carry only the chosen device's score, so
// this is how tests put the whole vector beside the reference scorer.
func (e *Engine) proposeScored(ctx context.Context, files []policy.FileInfo) (map[int64]string, []policy.Prediction, []map[string]float64, error) {
	return e.lone().proposeScored(ctx, files)
}

// proposeScored is proposeScored of a one-unit bridge m.
func (m *EngineModel) proposeScored(ctx context.Context, files []policy.FileInfo) (map[int64]string, []policy.Prediction, []map[string]float64, error) {
	m.prepare(files)
	u, e := &m.units[0], m.Engine
	tasks, short := u.tasks, u.short
	layout, preds, err := m.finish(ctx)
	if err != nil {
		return nil, nil, nil, err
	}
	scores := make([]map[string]float64, len(files))
	var buf []int
	for _, t := range tasks {
		s := make(map[string]float64)
		for k, j := range t.devices(&buf, short) {
			s[e.devices[j]] = e.pool.scores[int(t.base)+k]
		}
		scores[t.file] = s
	}
	return layout, preds, scores, nil
}

// unitModel returns a bridge that decides with unit i of m alone: over the
// unit's devices, drawing from the unit's stream.
func (m *EngineModel) unitModel(i int) *EngineModel {
	return &EngineModel{Engine: m.Engine, units: []shardUnit{{devs: m.units[i].devs, rng: m.units[i].rng}}}
}

// shardOf returns the unit owning the named device, and whether the engine
// lists the device at all.
func (m *EngineModel) shardOf(name string) (int, bool) {
	j, ok := m.Engine.devIndex[name]
	if !ok {
		return 0, false
	}
	return m.unitOf(j), true
}

// deviceShortlist is the shortlist a pruned decision of the lone engine e
// would score every file over, from its summary source as it reads now.
func (e *Engine) deviceShortlist() []int {
	m := e.lone()
	e.prep.full = false
	m.shortlist()
	return m.units[0].short
}

// Cadence returns the intra-burst gap statistics (the all-gap EWMA before
// release filtering).
func (g *GapPredictor) Cadence(fileID int64) (mean, dev float64, ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	s, found := g.stats[fileID]
	if !found || s.n < 1 {
		return 0, 0, false
	}
	return s.mean, s.dev, true
}

// LastAccess returns the most recent observed access time of the file.
func (g *GapPredictor) LastAccess(fileID int64) (float64, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	s, ok := g.stats[fileID]
	if !ok {
		return 0, false
	}
	return s.lastAccess, true
}
