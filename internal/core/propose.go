package core

import (
	"context"
	"sort"

	"geomancy/internal/mat"
	"geomancy/internal/nn"
)

// The engine has one decision pipeline, split into three stages so a
// sharded coordinator can interleave many engines' decisions around ONE
// batched inference per cycle:
//
//	prepare — invalidation, shortlist and task construction, and
//	          candidate row assembly into the engine's input buffer. Draws
//	          no randomness and runs no GEMM, so shards prepare
//	          concurrently.
//	forward — one nn.ForwardBatch over the assembled rows.
//	          ProposeLayoutContext forwards its own rows; the coordinator
//	          concatenates every shard's rows and forwards once.
//	finish  — denormalization, score writeback, and the serial ε-greedy
//	          selection (the only stage that draws from e.rng).
//
// An exhaustive pass (Config.TopK = 0, the first decision, the cadence
// rescan) is the same body run with every file invalidated and every
// device shortlisted: prepare forks once to choose the invalidation set
// and the shortlist, finish once for the full-pass epilogue.

// pendingDecision is a prepared-but-not-yet-scored decision: the task
// list mapping batch rows to (file, device) pairings, plus the assembled
// input rows in the owning engine's reusable buffers. The buffers are
// valid until the engine's next prepare.
type pendingDecision struct {
	eng   *Engine
	files []FileMeta

	// full marks an all-device pass; tasks holds one entry per file (its
	// score entry and the rows to score), total the row count.
	full  bool
	tasks []scoreTask
	total int

	// Assembled input: flat for dense models, seq for recurrent ones.
	// Aliases of the engine's reusable buffers.
	flat *mat.Matrix
	seq  []*mat.Matrix
}

// prepareProposal runs the decision pipeline up to (but excluding) the
// batched inference: invalidation, task-list construction, and
// candidate-row assembly. It advances the decision counter and watermark,
// so every prepare must be followed by exactly one finish.
func (e *Engine) prepareProposal(ctx context.Context, files []FileMeta) (*pendingDecision, error) {
	if !e.trained {
		return nil, ErrNotTrained
	}
	pd := &pendingDecision{eng: e, files: files, full: e.cfg.TopK == 0 || e.fullRescanDue()}
	e.decisionCount++

	var short []int
	if pd.full {
		e.invalidateAll()
		short = e.allDevices()
	} else {
		e.invalidateChanged()
		short = e.deviceShortlist()
	}
	pd.tasks, pd.total = e.pruneTasks(files, short)
	if pd.total > 0 {
		var err error
		pd.flat, pd.seq, err = e.assembleTasks(ctx, files, pd.tasks, pd.total)
		if err != nil {
			return nil, err
		}
	}
	return pd, nil
}

// finish consumes the inference output rows [base, base+total) of out and
// completes the decision: denormalization, score writeback, the full-pass
// epilogue, candidate filtering, and the serial ε-greedy selection. out
// may be nil when total is 0.
func (pd *pendingDecision) finish(ctx context.Context, out *mat.Matrix, base int) (map[int64]string, []Decision, error) {
	e := pd.eng
	files := pd.files

	// Per file: write the fresh scores into its entry under the current
	// generation, then decide from every current-generation score — the
	// full width after an all-device pass (and for clean files still
	// carrying one), the shortlist ∪ {current device} for freshly scored
	// ones.
	pre := make([]scored, len(files))
	err := parallelFor(ctx, len(files), e.cfg.Parallelism, func(i int) {
		f, t := files[i], pd.tasks[i]
		for k, j := range t.devs {
			raw := DecodeTarget(e.targetScaler.Inverse(clamp01(out.At(base+t.base+k, 0))))
			t.ent.scores[j] = nn.AdjustPrediction(raw, e.valMetrics)
			t.ent.gens[j] = e.modelGen
		}
		// Count first, so the map and the slice are allocated once at
		// their final size whatever the width.
		n := 0
		for _, g := range t.ent.gens {
			if g == e.modelGen {
				n++
			}
		}
		d := Decision{FileID: f.ID, Current: f.Device, Predictions: make(map[string]float64, n)}
		cands := make([]candidate, 0, n)
		for j, dev := range e.devices {
			if t.ent.gens[j] != e.modelGen {
				continue
			}
			p := t.ent.scores[j]
			d.Predictions[dev] = p
			// Candidate scores are maximize-me: latency negates.
			cands = append(cands, candidate{device: dev, score: e.betterScore(p)})
		}
		pre[i] = scored{d: d, passing: e.filterValid(cands, f.Size)}
	})
	if err != nil {
		return nil, nil, err
	}
	if pd.full {
		e.endFullPass(files, pd.tasks)
	}
	return e.selectLayout(files, pre)
}

// pruneTasks builds the work list, one task per file: the shortlist ∪
// {current device} entries not yet scored under the current model
// generation. After invalidateAll with the all-device shortlist that is
// the full file-major files×devices grid.
func (e *Engine) pruneTasks(files []FileMeta, short []int) (tasks []scoreTask, total int) {
	tasks = make([]scoreTask, len(files))
	for i, f := range files {
		ent := e.ensureCache(f)
		var need []int
		cur, curOK := e.devIndex[f.Device]
		curListed := false
		for _, j := range short {
			if curOK && j == cur {
				curListed = true
			}
			if ent.gens[j] != e.modelGen {
				need = append(need, j)
			}
		}
		if curOK && !curListed && ent.gens[cur] != e.modelGen {
			pos := sort.SearchInts(need, cur)
			need = append(need, 0)
			copy(need[pos+1:], need[pos:])
			need[pos] = cur
		}
		tasks[i] = scoreTask{ent: ent, devs: need, base: total}
		total += len(need)
	}
	return tasks, total
}

// assembleTasks builds the candidate feature rows for every task into the
// engine's reusable input buffers, reusing (and filling) each entry's raw
// feature ingredients; a file with nothing to score is not even fetched.
// Nothing here consumes e.rng, and tasks touch disjoint rows and entries,
// so the fan-out is race-free.
func (e *Engine) assembleTasks(ctx context.Context, files []FileMeta, tasks []scoreTask, total int) (*mat.Matrix, []*mat.Matrix, error) {
	cols := e.net.InSize
	recurrent := e.net.IsRecurrent()
	var flat *mat.Matrix
	var seq []*mat.Matrix
	w := 1
	if recurrent {
		w = e.net.Window
		seq = e.seqBufs(w, total, cols)
	} else {
		flat = e.flatBuf(total, cols)
	}
	err := parallelFor(ctx, len(tasks), e.cfg.Parallelism, func(i int) {
		f, t := files[i], tasks[i]
		if len(t.devs) == 0 {
			return
		}
		// Candidate feature row ingredients: the file's typical access,
		// stamped at the most recent known time.
		if !t.ent.featValid {
			t.ent.feat = e.gatherFileFeatures(f, recurrent)
			t.ent.featValid = true
		}
		ff := t.ent.feat
		// History rows (normalized) are shared by every device pairing of
		// this file; only the candidate row itself differs per device.
		var hist [][]float64
		if recurrent {
			hist = make([][]float64, len(ff.hist))
			for k, raw := range ff.hist {
				nrm := make([]float64, len(raw))
				for c, v := range raw {
					nrm[c] = e.featScaler.TransformValue(c, v)
				}
				hist[k] = nrm
			}
		}
		for k, j := range t.devs {
			norm := e.candidateRow(ff, f.ID, j)
			r := t.base + k
			if !recurrent {
				flat.SetRow(r, norm)
				continue
			}
			// The window is the file's history padded by repeating the
			// candidate row, then the candidate row last.
			need := w - 1
			for x := 0; x < need; x++ {
				if h := len(hist) - need + x; h >= 0 {
					seq[x].SetRow(r, hist[h])
				} else {
					seq[x].SetRow(r, norm)
				}
			}
			seq[need].SetRow(r, norm)
		}
	})
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	return flat, seq, nil
}
