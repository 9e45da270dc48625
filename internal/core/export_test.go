package core

import (
	"context"

	"geomancy/internal/policy"
)

// DecideLayout runs one sharded decision cycle over files, its two halves
// back to back, as the coordinator's Model().Propose does.
func (s *Sharded) DecideLayout(ctx context.Context, files []policy.FileInfo) (map[int64]string, []policy.Prediction, error) {
	s.prepare(files)
	return s.propose(ctx)
}

// proposeShardByShard is the model half of the cycle prepare left, with
// each shard engine's runs scored in a fan-out of their own and selected
// before the next shard's are scored, as the coordinator did before one
// fan-out scored every shard's runs: the reference that one fan-out is held
// to. Every shard engine commits first, as in the one fan-out, so a
// cancelled cycle leaves the same state either way.
func (s *Sharded) proposeShardByShard(ctx context.Context) (map[int64]string, []policy.Prediction, error) {
	defer func() {
		for i := range s.units {
			s.units[i].files = nil
		}
	}()
	if s.routeErr != nil {
		return nil, nil, s.routeErr
	}
	if !s.global.Engine.trained {
		return nil, nil, ErrNotTrained
	}
	for i := range s.units {
		s.units[i].engine.commit()
	}
	decs := make([][]policy.Prediction, len(s.units))
	for i := range s.units {
		e := s.units[i].engine
		var tally scoreTally
		if err := e.score(ctx, &tally); err != nil {
			return nil, nil, err
		}
		decs[i] = e.selectLayout()
		e.prep.files, e.prep.tasks = nil, nil
	}
	layout, decisions := s.merge(decs)
	return layout, decisions, nil
}

// proposeScored is ProposeLayoutContext that also returns each file's
// name→score view of the scores the select stage decided over: the
// decision's scores of the file's task devices (bytes/s, denormalized and
// MAE-adjusted). Decision records carry only the chosen device's score, so
// this is how tests put the whole vector beside the reference scorer.
func (e *Engine) proposeScored(ctx context.Context, files []policy.FileInfo) (map[int64]string, []policy.Prediction, []map[string]float64, error) {
	e.prepare(files)
	tasks, short := e.prep.tasks, e.prep.short
	layout, preds, err := e.propose(ctx)
	if err != nil {
		return nil, nil, nil, err
	}
	scores := make([]map[string]float64, len(files))
	var buf []int
	for i, t := range tasks {
		scores[i] = make(map[string]float64)
		for k, j := range t.devices(&buf, short) {
			scores[i][e.devices[j]] = e.pool.scores[e.scoreOff+t.base+k]
		}
	}
	return layout, preds, scores, nil
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
