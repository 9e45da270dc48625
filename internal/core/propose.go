package core

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"geomancy/internal/mat"
	"geomancy/internal/nn"
	"geomancy/internal/policy"
)

// The engine has one decision body, decide, in three stages:
//
//	prepare — invalidation, the shortlist and the task list: which
//	          (file, device) pairings this decision scores. Serial.
//	score   — one parallelFor over runs of consecutive files, the only
//	          goroutine fan-out of a decision. A worker takes its run end to
//	          end on its own lane: stale features gathered, candidate rows
//	          written into the lane's input block, one serial
//	          nn.ForwardBatch, scores written into the decision's score
//	          slice, each file's greedy pick made. Draws no randomness.
//	select  — the full-pass epilogue and the serial ε-greedy selection
//	          (the only stage that draws from e.rng).
//
// ProposeLayoutContext runs the body once; Sharded.DecideLayout runs it
// shard by shard on the shard engines, which share the global engine's
// scoring pool. Either reports what scoring did once per call.
//
// The body has one input type and one output type: the policy snapshot's
// own []policy.FileInfo goes in (never copied) and one policy.Prediction
// per file comes out, positionally aligned with the input. Device names
// appear only at those two edges; in between a device is its index in
// e.devices. A decision's scores live for that decision: the pool's score
// slice holds them, indexed as the tasks' device lists are, and the next
// decision overwrites them. Only feature ingredients persist between
// decisions (prune.go).
//
// An exhaustive pass (Config.TopK = 0, the first decision, the cadence
// rescan) is the same body run with every file invalidated and every
// device shortlisted: prepare forks once to choose the invalidation set
// and the shortlist, decide once for the full-pass epilogue.

// scorePool is what the scoring loop reuses from one decision to the
// next: one lane per worker, and the run boundaries, candidate devices and
// scores of the decision in flight. The global engine owns it; shard
// engines share it by pointer, as they share its model, because shards
// decide, selection included, one at a time.
type scorePool struct {
	lanes []*scoreLane
	runs  []int
	// devs holds the device lists of the tasks whose current device is not
	// shortlisted (pruneTasks); scores[t.base+k] is the score of task t's
	// device t.devs[k] (bytes/s, denormalized and MAE-adjusted).
	devs   []int
	scores []float64
}

// scoreLane is one scoring worker's buffers: the input rows of the run it
// is on and the forward pass's scratch. A run holds at most nn.BlockRows
// rows unless one file alone has more, so a lane stays block-sized however
// many rows a decision scores.
type scoreLane struct {
	in      *mat.Matrix
	scratch nn.Scratch
}

// scoreTally is what the scoring stages of one proposal or one sharded
// cycle did: the candidate rows they scored and the wall time they took.
type scoreTally struct {
	rows int
	took time.Duration
}

// decide runs one decision over files: prepare, score, select. It adds
// what its scoring did to tally, for the caller to report once.
func (e *Engine) decide(ctx context.Context, files []policy.FileInfo, tally *scoreTally) (map[int64]string, []policy.Prediction, error) {
	tasks, full, err := e.prepare(files)
	if err != nil {
		return nil, nil, err
	}
	if err := e.score(ctx, files, tasks, tally); err != nil {
		return nil, nil, err
	}
	if full {
		e.endFullPass(files, tasks)
	}
	layout, preds := e.selectLayout(files, tasks)
	return layout, preds, nil
}

// prepare runs a decision up to scoring: it advances the decision counter,
// marks stale what changed (everything, on an all-device pass, which full
// reports) and builds the task list over the shortlist.
func (e *Engine) prepare(files []policy.FileInfo) (tasks []scoreTask, full bool, err error) {
	if !e.trained {
		return nil, false, ErrNotTrained
	}
	full = e.cfg.TopK == 0 || e.fullRescanDue()
	e.decisionCount++
	var short []int
	if full {
		e.invalidateAll()
		short = e.allDevices()
	} else {
		e.invalidateChanged()
		short = e.deviceShortlist()
	}
	return e.pruneTasks(files, short), full, nil
}

// pruneTasks builds the work list, one task per file: the shortlist ∪
// {current device}, ascending. With the all-device shortlist that is the
// full file-major files×devices grid. A file on a shortlisted device
// shares short itself; any other gets its own list, short with its device
// inserted, in the pool's devs. A list made before devs grows keeps
// pointing at the old array, whose contents never change again.
func (e *Engine) pruneTasks(files []policy.FileInfo, short []int) []scoreTask {
	tasks := make([]scoreTask, len(files))
	p := e.pool
	p.devs = p.devs[:0]
	total := 0
	for i, f := range files {
		devs := short
		if cur, ok := e.devIndex[f.Device]; ok {
			if at, in := slices.BinarySearch(short, cur); !in {
				n := len(p.devs)
				p.devs = append(append(append(p.devs, short[:at]...), cur), short[at:]...)
				devs = p.devs[n:len(p.devs):len(p.devs)]
			}
		}
		tasks[i] = scoreTask{ent: e.ensureCache(f), devs: devs, base: total}
		total += len(devs)
	}
	p.scores = slices.Grow(p.scores[:0], total)[:total]
	return tasks
}

// score scores every task's pairings and makes every file's greedy pick,
// run by run on up to Config.Parallelism workers, and adds the rows and
// the time to tally.
func (e *Engine) score(ctx context.Context, files []policy.FileInfo, tasks []scoreTask, tally *scoreTally) error {
	if len(tasks) == 0 {
		return nil
	}
	start := time.Now() //geomancy:nondeterministic telemetry timestamp: scoring duration is reported, never fed back into decisions
	p := e.pool
	p.runs = runStarts(p.runs[:0], tasks)
	workers := min(e.cfg.Parallelism, len(p.runs)-1)
	for len(p.lanes) < workers {
		p.lanes = append(p.lanes, &scoreLane{})
	}
	err := parallelFor(ctx, len(p.runs)-1, workers, func(w, r int) {
		lo, hi := p.runs[r], p.runs[r+1]
		e.scoreRun(p.lanes[w], files[lo:hi], tasks[lo:hi])
	})
	last := tasks[len(tasks)-1]
	tally.rows += last.base + len(last.devs)
	tally.took += time.Since(start) //geomancy:nondeterministic telemetry timestamp: scoring duration is reported, never fed back into decisions
	return err
}

// runStarts cuts the tasks into runs of consecutive files: a run ends
// before the file whose rows would take it past nn.BlockRows, unless it
// has no rows yet. It appends to starts each run's first task index, then
// len(tasks). Files with nothing to score join the run they fall in.
func runStarts(starts []int, tasks []scoreTask) []int {
	starts = append(starts, 0)
	lo := 0 // the first row of the open run
	for i, t := range tasks {
		if t.base > lo && t.base+len(t.devs)-lo > nn.BlockRows {
			starts = append(starts, i)
			lo = t.base
		}
	}
	return append(starts, len(tasks))
}

// scoreRun takes one run of files through scoring on lane l: it gathers
// the raw feature ingredients a file with rows to score lacks (the file's
// typical access, stamped at the most recent known time), writes the
// run's candidate rows into the lane's input block, forwards them, writes
// each score into the decision's score slice, and picks each file's greedy
// destination. Runs touch disjoint tasks, entries and scores, and nothing
// here draws from e.rng, so runs may score in any order on any worker.
func (e *Engine) scoreRun(l *scoreLane, files []policy.FileInfo, tasks []scoreTask) {
	last := tasks[len(tasks)-1]
	base := tasks[0].base
	var out *mat.Matrix
	if rows := last.base + len(last.devs) - base; rows > 0 {
		l.in = mat.Grow(l.in, rows, featureCount)
		for i, f := range files {
			t := &tasks[i]
			if len(t.devs) > 0 && !t.ent.featValid {
				t.ent.feat = e.gatherFileFeatures(f)
				t.ent.featValid = true
			}
			for k, j := range t.devs {
				e.candidateRow(l.in.Row(t.base-base+k), t.ent.feat, f.ID, j)
			}
		}
		out = e.net.ForwardBatch(l.in, nil, &l.scratch)
	}
	for i := range tasks {
		t := &tasks[i]
		scores := e.pool.scores[t.base : t.base+len(t.devs)]
		for k := range t.devs {
			raw := DecodeTarget(e.targetScaler.Inverse(clamp01(out.At(t.base-base+k, 0))))
			scores[k] = nn.AdjustPrediction(raw, e.valMetrics)
		}
		t.pick = e.greedyPick(t.devs, scores, files[i].Size)
	}
}

// parallelFor runs fn(w, i) for every i in [0, n) on up to workers
// goroutines, the caller's among them, w being the index in [0, workers)
// of the one running it, and checks ctx between items. The partition
// never affects results: callers only use it for independent per-item
// work.
func parallelFor(ctx context.Context, n, workers int, fn func(w, i int)) error {
	var next atomic.Int64
	work := func(w int) {
		for ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(w, i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
	return ctx.Err()
}
