package core

import (
	"context"

	"geomancy/internal/mat"
	"geomancy/internal/nn"
	"geomancy/internal/policy"
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
//	finish  — denormalization, score writeback, each file's greedy pick,
//	          and the serial ε-greedy selection (the only stage that draws
//	          from e.rng).
//
// The pipeline has one input type and one output type: the policy
// snapshot's own []policy.FileInfo goes in (never copied) and one
// policy.Prediction per file comes out, positionally aligned with the
// input. Device names appear only at those two edges; in between a device
// is its index in e.devices, and a file's per-device score vector lives in
// its fileCache entry — nothing else holds a copy.
//
// An exhaustive pass (Config.TopK = 0, the first decision, the cadence
// rescan) is the same body run with every file invalidated and every
// device shortlisted: prepare forks once to choose the invalidation set
// and the shortlist, finish once for the full-pass epilogue.

// pendingDecision is a prepared-but-not-yet-scored decision: the task
// list mapping batch rows to (file, device) pairings, plus the assembled
// input rows in the owning engine's reusable buffer. The buffer is valid
// until the engine's next prepare.
type pendingDecision struct {
	eng   *Engine
	files []policy.FileInfo

	// full marks an all-device pass; tasks holds one entry per file (its
	// score entry and the rows to score), total the row count.
	full  bool
	tasks []scoreTask
	total int

	// flat is the assembled input, an alias of the engine's reusable buffer.
	flat *mat.Matrix
}

// prepareProposal runs the decision pipeline up to (but excluding) the
// batched inference: invalidation, task-list construction, and
// candidate-row assembly. It advances the decision counter and watermark,
// so every prepare must be followed by exactly one finish.
func (e *Engine) prepareProposal(ctx context.Context, files []policy.FileInfo) (*pendingDecision, error) {
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
		pd.flat, err = e.assembleTasks(ctx, files, pd.tasks, pd.total)
		if err != nil {
			return nil, err
		}
	}
	return pd, nil
}

// finish consumes the inference output rows [base, base+total) of out and
// completes the decision: denormalization, score writeback, each file's
// greedy pick, the full-pass epilogue, and the serial ε-greedy selection.
// out may be nil when total is 0.
func (pd *pendingDecision) finish(ctx context.Context, out *mat.Matrix, base int) (map[int64]string, []policy.Prediction, error) {
	e := pd.eng

	// Per file: write the fresh scores into its entry under the current
	// generation, then pick greedily from every current-generation score —
	// the full width after an all-device pass (and for clean files still
	// carrying one), the shortlist ∪ {current device} for freshly scored
	// ones.
	err := parallelFor(ctx, len(pd.files), e.cfg.Parallelism, func(i int) {
		t := &pd.tasks[i]
		for k, j := range t.devs {
			raw := DecodeTarget(e.targetScaler.Inverse(clamp01(out.At(base+t.base+k, 0))))
			t.ent.scores[j] = nn.AdjustPrediction(raw, e.valMetrics)
			t.ent.gens[j] = e.modelGen
		}
		t.pick = e.greedyPick(t.ent, pd.files[i].Size)
	})
	if err != nil {
		return nil, nil, err
	}
	if pd.full {
		e.endFullPass(pd.files, pd.tasks)
	}
	layout, preds := e.selectLayout(pd.files, pd.tasks)
	return layout, preds, nil
}

// pruneTasks builds the work list, one task per file: the shortlist ∪
// {current device} entries not yet scored under the current model
// generation. After invalidateAll with the all-device shortlist that is
// the full file-major files×devices grid. It counts every task's devices
// first, so the device lists share one exactly-sized slice, laid out as the
// batch rows are.
func (e *Engine) pruneTasks(files []policy.FileInfo, short []int) (tasks []scoreTask, total int) {
	tasks = make([]scoreTask, len(files))
	for i, f := range files {
		ent := e.ensureCache(f)
		tasks[i] = scoreTask{ent: ent, base: total}
		total += e.unscored(nil, ent, f.Device, short)
	}
	devs := make([]int, total)
	for i, f := range files {
		t := &tasks[i]
		end := t.base + e.unscored(devs[t.base:], t.ent, f.Device, short)
		t.devs = devs[t.base:end:end]
	}
	return tasks, total
}

// unscored writes to dst, unless it is nil, the ascending indices of the
// devices in short ∪ {the device named current} that ent holds no score
// for under the current generation, and returns how many there are. short
// is ascending.
func (e *Engine) unscored(dst []int, ent *fileCache, current string, short []int) int {
	cur, curOK := e.devIndex[current]
	curOK = curOK && ent.gens[cur] != e.modelGen // an unscored current device not yet written
	n := 0
	put := func(j int) {
		if dst != nil {
			dst[n] = j
		}
		n++
	}
	for _, j := range short {
		if curOK && cur <= j {
			if cur < j { // not shortlisted: it goes here
				put(cur)
			}
			curOK = false
		}
		if ent.gens[j] != e.modelGen {
			put(j)
		}
	}
	if curOK {
		put(cur)
	}
	return n
}

// assembleTasks builds the candidate feature rows for every task into the
// engine's reusable input buffer, reusing (and filling) each entry's raw
// feature ingredients; a file with nothing to score is not even fetched.
// A pruned decision scores a different number of rows every time, so the
// buffer is reused by capacity and holds whatever the last decision left
// until every row is written here. Nothing here consumes e.rng, and tasks
// touch disjoint rows and entries, so the fan-out is race-free.
func (e *Engine) assembleTasks(ctx context.Context, files []policy.FileInfo, tasks []scoreTask, total int) (*mat.Matrix, error) {
	e.inFlat = mat.Grow(e.inFlat, total, e.net.InSize)
	flat := e.inFlat
	err := parallelFor(ctx, len(tasks), e.cfg.Parallelism, func(i int) {
		f, t := files[i], tasks[i]
		if len(t.devs) == 0 {
			return
		}
		// Candidate feature row ingredients: the file's typical access,
		// stamped at the most recent known time.
		if !t.ent.featValid {
			t.ent.feat = e.gatherFileFeatures(f)
			t.ent.featValid = true
		}
		for k, j := range t.devs {
			e.candidateRow(flat.Row(t.base+k), t.ent.feat, f.ID, j)
		}
	})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return flat, nil
}
