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

// The engine has one decision body in two halves. prepare is the half that
// reads no model; finish is the half that does:
//
//	prepare — the dirty set, the shortlist, the task list (which (file,
//	          device) pairings this decision scores) and the feature
//	          gather of every file whose cached ingredients are stale.
//	          Serial. It reads the ReplayDB, the cluster's summaries and
//	          the feature cache, writes only the engine's prepared
//	          decision (e.prep) and commits nothing.
//	finish  — commit: the cadence step, the dirty watermark and the
//	          gathered features into the cache (prune.go); score: one
//	          parallelFor over runs of consecutive files, a worker taking
//	          its run end to end on its own lane (candidate rows written
//	          into the lane's input block, one serial nn.ForwardBatch,
//	          scores written into the decision's score slice, each file's
//	          greedy pick made), drawing no randomness; select: the serial
//	          ε-greedy selection, the only stage that draws from e.rng.
//
// EngineModel.Propose runs the halves back to back. A Geomancy policy
// over an EngineModel at Config.Parallelism > 1 runs prepare on one helper
// goroutine while the caller retrains, and finish once the fit has
// succeeded (policybridge.go). prepare reads nothing a fit writes and no
// RNG, and a fit that fails is never finished, so the overlapped decision
// is the serial one bit for bit, and a failed fit leaves the cadence, the
// watermark and the cache as the serial path does. A decision therefore
// has two fan-outs: that helper, beside the fit, and the scoring workers.
// A sharded coordinator prepares every shard engine over one dirty-set
// query, commits them all, lays every shard's runs into one list and
// scores it in one fan-out over the scoring pool the shard engines share
// with the global engine, each engine's scores at its own offset
// (Engine.scoreOff) into the cycle's score slice; then it selects shard by
// shard. Either reports what scoring did once per call.
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
// rescan) is the same body run with every file stale and every device
// shortlisted; its commit makes the pass's entries the whole cache.

// scorePool is what the scoring loop reuses from one decision to the
// next: one lane per worker, the runs of the decision in flight and its
// scores. The global engine owns it; shard engines share it by pointer, as
// they share its model, so a sharded cycle scores every shard's runs in one
// fan-out over the same lanes.
type scorePool struct {
	lanes []*scoreLane
	spans []scoreSpan
	// scores[e.scoreOff+t.base+k] is the score of engine e's task t on its
	// k-th device (bytes/s, denormalized and MAE-adjusted). A lone engine's
	// decision keeps the slice for the next; a sharded cycle's, which
	// holds every shard's scores, is dropped with the cycle.
	scores []float64
}

// scoreSpan is one run of consecutive files of engine e's prepared
// decision: its tasks lo to hi.
type scoreSpan struct {
	e      *Engine
	lo, hi int
}

// prepared is one decision's model-free half, as prepare leaves it for
// finish. Every engine, shard engines included, owns its own, so a
// coordinator can prepare all its shards before it scores any.
type prepared struct {
	// files is the working set the decision was prepared over, which
	// finish drops with the tasks.
	files []policy.FileInfo
	full  bool
	// staleAll marks every cached entry stale: a full pass, or a store
	// without a ChangeTracker.
	staleAll bool
	// watermark is the store's watermark when prepare began, the one
	// commit advances the dirty watermark to.
	watermark uint64
	// stale holds the cached entries of files whose telemetry changed
	// since the last watermark, in or out of the working set; its storage
	// is reused from one decision to the next.
	stale []*fileCache
	// short is the decision's device shortlist, ascending, and tasks its
	// work list, one task per file, which finish drops once it has
	// selected.
	short []int
	tasks []scoreTask
}

// scoreLane is one scoring worker's buffers: the input rows of the run it
// is on, the device list of a task whose file's current device is not
// shortlisted (scoreTask.devices) and the forward pass's scratch. A run
// holds at most nn.BlockRows rows unless one file alone has more, so a
// lane stays block-sized however many rows a decision scores.
type scoreLane struct {
	in      *mat.Matrix
	devs    []int
	scratch nn.Scratch
}

// scoreTally is what the scoring stages of one proposal or one sharded
// cycle did: the candidate rows they scored and the wall time they took.
type scoreTally struct {
	rows int
	took time.Duration
}

// prepare runs the model-free half of a decision over files into e.prep:
// the dirty set (everything, on an all-device pass), the shortlist, and
// the task list, one task per file, with every stale file's features
// gathered. It reads e.decisionCount, e.lastWatermark and the cache, and
// changes none of them.
func (e *Engine) prepare(files []policy.FileInfo) { e.prepareFrom(files, e.tracker) }

// prepareFrom is prepare reading the watermark and the dirty set from feed:
// the engine's own tracker, or a sharded cycle's shared view of it (nil
// when the store tracks no changes).
func (e *Engine) prepareFrom(files []policy.FileInfo, feed ChangeTracker) {
	p := &e.prep
	p.files = files
	p.full = e.cfg.TopK == 0 || e.fullRescanDue()
	p.staleAll = p.full || feed == nil
	p.stale = p.stale[:0]
	if feed != nil {
		// Taken before the dirty set and the gather, so a record appended
		// meanwhile is past it and dirties its file next time.
		p.watermark = feed.Watermark()
	}
	var changed []int64
	if p.full {
		p.short = e.allDevices()
	} else {
		changed = e.dirtySet(feed)
		p.short = e.deviceShortlist()
	}
	p.tasks = make([]scoreTask, len(files))
	base := 0
	for i, f := range files {
		t := &p.tasks[i]
		*t = scoreTask{ent: e.cache[f.ID], base: base, extra: -1}
		if cur, ok := e.devIndex[f.Device]; ok {
			if _, in := slices.BinarySearch(p.short, cur); !in {
				t.extra = int32(cur)
			}
		}
		n := t.rows(p.short)
		if p.current(t.ent, f, changed) {
			t.feat = t.ent.feat
		} else if n > 0 {
			t.feat = e.gatherFileFeatures(f)
		}
		base += n
	}
}

// rows returns how many candidate rows the prepared decision scores.
func (p *prepared) rows() int {
	if len(p.tasks) == 0 {
		return 0
	}
	last := &p.tasks[len(p.tasks)-1]
	return last.base + last.rows(p.short)
}

// finish runs the model half of the decision prepare left: commit, score,
// select. It adds what its scoring did to tally, for the caller to report
// once.
func (e *Engine) finish(ctx context.Context, tally *scoreTally) (map[int64]string, []policy.Prediction, error) {
	if !e.trained {
		return nil, nil, ErrNotTrained
	}
	e.commit()
	if err := e.score(ctx, tally); err != nil {
		return nil, nil, err
	}
	preds := e.selectLayout()
	e.prep.files, e.prep.tasks = nil, nil
	layout := make(map[int64]string, len(preds))
	for _, d := range preds {
		layout[d.FileID] = d.Chosen
	}
	return layout, preds, nil
}

// propose finishes the decision prepare left and reports its scoring: it
// predicts the throughput of every file at its candidate locations
// (including not moving it) and returns the layout assigning each file to
// its best predicted location, with one decision record per file in input
// order. With probability Epsilon a file is assigned a random device
// instead — the exploration that keeps the availability picture fresh
// (§V-H). The engine's validator vets destinations; invalid proposals fall
// back per the Action Checker rules (select.go). ctx is checked between
// scoring runs. Only the ε-greedy selection — the part that draws from
// e.rng — runs serially in file order, so a fixed seed replays identically
// at any Parallelism.
func (e *Engine) propose(ctx context.Context) (map[int64]string, []policy.Prediction, error) {
	var tally scoreTally
	layout, preds, err := e.finish(ctx, &tally)
	e.metrics.observeScoring(tally)
	return layout, preds, err
}

// layRuns cuts the prepared decision's tasks into runs of consecutive files
// and appends them to the pool's spans, the engine's scores starting at off
// in the decision's score slice; it returns the offset past them. A run
// ends before the file whose rows would take it past nn.BlockRows, unless
// it has no rows yet. Files with nothing to score join the run they fall
// in.
func (e *Engine) layRuns(off int) int {
	e.scoreOff = off
	p, pool := &e.prep, e.pool
	if len(p.tasks) == 0 {
		return off
	}
	total := p.rows()
	first, lo := 0, 0 // the first task and the first row of the open run
	for i := range p.tasks {
		end := total
		if i+1 < len(p.tasks) {
			end = p.tasks[i+1].base
		}
		if t := &p.tasks[i]; t.base > lo && end-lo > nn.BlockRows {
			pool.spans = append(pool.spans, scoreSpan{e, first, i})
			first, lo = i, t.base
		}
	}
	pool.spans = append(pool.spans, scoreSpan{e, first, len(p.tasks)})
	return off + total
}

// score scores the engine's prepared decision alone, in a fan-out of its
// own, its scores from the start of the pool's score slice, which the pool
// keeps for the next decision.
func (e *Engine) score(ctx context.Context, tally *scoreTally) error {
	pool := e.pool
	pool.spans = pool.spans[:0]
	rows := e.layRuns(0)
	pool.scores = slices.Grow(pool.scores[:0], rows)[:rows]
	return pool.fanOut(ctx, e.cfg.Parallelism, rows, tally)
}

// fanOut scores every span laid in the pool, whose rows total rows, on up
// to workers goroutines, and adds the rows and the time to tally.
func (pool *scorePool) fanOut(ctx context.Context, workers, rows int, tally *scoreTally) error {
	if len(pool.spans) == 0 {
		return nil
	}
	start := time.Now() //geomancy:nondeterministic telemetry timestamp: scoring duration is reported, never fed back into decisions
	workers = min(workers, len(pool.spans))
	for len(pool.lanes) < workers {
		pool.lanes = append(pool.lanes, &scoreLane{})
	}
	err := parallelFor(ctx, len(pool.spans), workers, func(w, i int) {
		s := pool.spans[i]
		s.e.scoreRun(pool.lanes[w], s.lo, s.hi)
	})
	tally.rows += rows
	tally.took += time.Since(start) //geomancy:nondeterministic telemetry timestamp: scoring duration is reported, never fed back into decisions
	return err
}

// scoreRun takes the run of prepared tasks lo to hi through scoring on lane
// l: it writes the run's candidate rows from the features prepare resolved
// into the lane's input block, forwards them, writes each score into the
// decision's score slice, and picks each file's greedy destination. Runs
// touch disjoint tasks and scores, and nothing here draws from e.rng, so
// runs may score in any order on any worker.
func (e *Engine) scoreRun(l *scoreLane, lo, hi int) {
	short := e.prep.short
	files, tasks := e.prep.files[lo:hi], e.prep.tasks[lo:hi]
	last := &tasks[len(tasks)-1]
	base := tasks[0].base
	var out *mat.Matrix
	if rows := last.base + last.rows(short) - base; rows > 0 {
		l.in = mat.Grow(l.in, rows, featureCount)
		for i, f := range files {
			t := &tasks[i]
			for k, j := range t.devices(&l.devs, short) {
				e.candidateRow(l.in.Row(t.base-base+k), t.feat, f.ID, j)
			}
		}
		out = e.net.ForwardBatch(l.in, nil, &l.scratch)
	}
	for i := range tasks {
		t := &tasks[i]
		devs := t.devices(&l.devs, short)
		scores := e.pool.scores[e.scoreOff+t.base:][:len(devs)]
		for k := range devs {
			raw := DecodeTarget(e.targetScaler.Inverse(clamp01(out.At(t.base-base+k, 0))))
			scores[k] = nn.AdjustPrediction(raw, e.valMetrics)
		}
		t.pick = int32(e.greedyPick(devs, scores, files[i].Size))
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
