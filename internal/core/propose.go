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
	"geomancy/internal/rng"
)

// A decision has one body, the bridge's cycle over its units (shardUnit:
// the lone engine's one unit over every device, or a coordinator's device
// groups, see NewSharded), in two halves over the one engine. prepare is
// the half that reads no model; finish is the half that does:
//
//	prepare — route the working set to the units (each unit's tasks, in
//	          input order), then, from one dirty-set query of the store and
//	          one ranking of the device summaries: the cadence's verdict,
//	          the dirty set, every unit's shortlist, which (file, device)
//	          pairings each task scores and the feature gather of every
//	          file whose cached ingredients are stale. Serial. It reads the
//	          ReplayDB, the cluster's summaries and the feature cache,
//	          writes only the prepared decision (e.prep and the units'
//	          lists) and commits nothing.
//	finish  — commit: the cadence step, the dirty watermark and the
//	          gathered features into the cache (prune.go); score: every
//	          unit's runs of consecutive files laid into one list and scored
//	          in one parallelFor, a worker taking its run end to end on its
//	          own lane (candidate rows written into the lane's input block,
//	          one serial nn.ForwardBatch, scores written into the decision's
//	          score slice, each file's greedy pick made), drawing no
//	          randomness; select: the serial ε-greedy selection, unit by
//	          unit, the only stage that draws from an RNG (each unit's own
//	          stream), into one record per file; merge: escalation across
//	          units, in unit order, and the layout map (sharded.go).
//
// The loop prepares every engine decision before it asks the policy
// (Loop.propose): on one helper goroutine beside the policy's fit
// at Config.Parallelism > 1, on the caller at 1. EngineModel.Propose
// finishes what was prepared, and prepares first only when nothing was.
// prepare reads nothing a fit writes and no RNG, and a decision whose fit
// fails is dropped unfinished, so the overlapped decision is the serial
// one bit for bit, and a failed fit leaves the cadence, the watermark and
// the cache as the serial path does. A decision therefore has two
// fan-outs: that helper, beside the fit, and the scoring workers. The
// scoring is reported once per decision.
//
// The body has one input type and one output type: the policy snapshot's
// own []policy.FileInfo goes in, never copied, and one policy.Prediction
// per file comes out, positionally aligned with it at every unit count.
// Device names appear only at those two edges; in between a file is its
// index in the input and a device its index in e.devices, which is also
// its fsid feature. A decision's scores live for that decision: the pool's
// score slice holds them, indexed as the tasks' device lists are, and the
// next decision overwrites them. Only feature ingredients persist between
// decisions (prune.go).
//
// An exhaustive pass (Config.TopK = 0, the first decision, the cadence
// rescan) is the same body run with every file stale and every unit's
// devices shortlisted; its commit makes the pass's entries the whole cache.

// shardUnit is one unit of the decision body: a group of the engine's
// device indices — ascending, in profile order, every index for a lone
// engine — and the stream its selection draws from, which for a lone
// engine is the engine's own. It also holds its share of the decision
// between prepare and finish (its shortlist and tasks), its shuffle
// scratch and its counters. Every other piece of decision state, the
// working set included, is the engine's.
type shardUnit struct {
	devs []int //geomancy:ephemeral the device group, rebuilt from the partition by NewSharded
	rng  *rng.RNG

	// short is the decision's device shortlist for the unit, ascending, and
	// tasks its work list, one task per file it owns, in input order.
	short []int       //geomancy:ephemeral the decision between its halves, rebuilt by every prepare
	tasks []scoreTask //geomancy:ephemeral the decision between its halves, rebuilt by every prepare

	perm []int          //geomancy:ephemeral exploration shuffle scratch, overwritten before every shuffle
	tele shardTelemetry //geomancy:ephemeral metrics counters, re-installed by SetMetrics
}

// scorePool is what the scoring loop reuses from one decision to the
// next: one lane per worker, the runs of the decision in flight and its
// scores. A decision scores every unit's runs in one fan-out over it.
type scorePool struct {
	lanes []*scoreLane
	spans []scoreSpan
	// scores[t.base+k] is the score of task t on its k-th device (bytes/s,
	// denormalized and MAE-adjusted). A one-unit decision keeps the slice
	// for the next; a coordinator's, every shard's, dies with the decision.
	scores []float64
}

// scoreSpan is one run of consecutive files of unit u's prepared
// decision: its tasks lo to hi.
type scoreSpan struct {
	u      *shardUnit
	lo, hi int
}

// prepared is the engine's share of a decision's model-free half, as
// prepare leaves it for finish; each unit's share is its own.
type prepared struct {
	// files is the prepared decision's working set, which every task
	// indexes; nil when no decision is prepared.
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

// scoreTally is what the scoring of one decision did: the candidate rows
// it scored and the wall time it took.
type scoreTally struct {
	rows int
	took time.Duration
}

// begin opens the engine's share of a decision: whether it is an
// all-device pass, whether every cached entry is stale, the store's
// watermark, and the dirty set, ascending (nil on an all-device pass or
// without a ChangeTracker), whose cached entries it records as stale. It
// reads e.decisionCount, e.lastWatermark and the cache, and changes none
// of them.
func (e *Engine) begin() []int64 {
	p := &e.prep
	p.full = e.cfg.TopK == 0 || e.fullRescanDue()
	p.staleAll = p.full || e.tracker == nil
	p.stale = p.stale[:0]
	if e.tracker != nil {
		// Taken before the dirty set and the gather, so a record appended
		// meanwhile is past it and dirties its file next time.
		p.watermark = e.tracker.Watermark()
	}
	if p.full {
		return nil
	}
	return e.dirtySet()
}

// prepareUnit runs unit u's share of the model-free half over its tasks
// and shortlist, against the dirty set changed, its rows starting at base
// among the decision's: every task's rows, with every stale file's
// features gathered. It returns the row past the unit's, reads the cache
// and changes nothing the engine keeps.
func (e *Engine) prepareUnit(u *shardUnit, changed []int64, base int32) int32 {
	for i := range u.tasks {
		t := &u.tasks[i]
		f := e.prep.files[t.file]
		*t = scoreTask{ent: e.cache[f.ID], base: base, file: t.file, extra: -1}
		if cur, ok := e.devIndex[f.Device]; ok {
			if _, in := slices.BinarySearch(u.short, cur); !in {
				t.extra = int32(cur)
			}
		}
		n := t.rows(u.short)
		if e.prep.current(t.ent, f, changed) {
			t.feat = t.ent.feat
		} else if n > 0 {
			t.feat = e.gatherFileFeatures(f)
		}
		base += int32(n)
	}
	return base
}

// layRuns cuts every unit's prepared tasks into runs of consecutive files
// of the unit, which become the pool's spans, and returns the decision's
// rows. A run ends before the file whose rows would take it past
// nn.BlockRows, unless it has no rows yet. Files with nothing to score
// join the run they fall in.
func (m *EngineModel) layRuns() int {
	spans, rows := m.Engine.pool.spans[:0], 0
	for i := range m.units {
		u := &m.units[i]
		first, lo := 0, rows // the first task and the first row of the open run
		for k := range u.tasks {
			t := &u.tasks[k]
			end := int(t.base) + t.rows(u.short)
			if int(t.base) > lo && end-lo > nn.BlockRows {
				spans = append(spans, scoreSpan{u, first, k})
				first, lo = k, int(t.base)
			}
			rows = end
		}
		if len(u.tasks) > 0 {
			spans = append(spans, scoreSpan{u, first, len(u.tasks)})
		}
	}
	m.Engine.pool.spans = spans
	return rows
}

// prepare runs the model-free half of a decision over files: it routes
// the files to their units, then opens the engine's share, shortlists
// every unit from one ranking and prepares every unit's tasks. A file no
// unit owns stops the routing; finish reports it.
func (m *EngineModel) prepare(files []policy.FileInfo) {
	e := m.Engine
	e.prep.files = files
	if files == nil {
		e.prep.files = []policy.FileInfo{} // an empty working set is prepared too
	}
	if m.routeErr = m.route(files); m.routeErr != nil {
		return
	}
	changed := e.begin()
	m.shortlist()
	var base int32
	for i := range m.units {
		base = e.prepareUnit(&m.units[i], changed, base)
	}
}

// finish runs the model half of the decision prepare left: the engine
// commits, every unit's runs are scored in one fan-out under the model the
// last fit wrote and the scoring reported once, then each unit selects, in
// unit order, into one record per input file, and the merge follows. With
// probability Epsilon a file is assigned a random device of its unit
// instead of its best predicted one — the exploration that keeps the
// availability picture fresh (§V-H). The engine's validator vets
// destinations; invalid proposals fall back per the Action Checker rules
// (select.go). ctx is checked between scoring runs. Only the selection
// draws randomness, serially in task order from each unit's own stream, so
// a fixed seed replays identically at any Parallelism. The prepared
// decision is dropped whatever the outcome.
func (m *EngineModel) finish(ctx context.Context) (map[int64]string, []policy.Prediction, error) {
	defer m.drop()
	if m.routeErr != nil {
		return nil, nil, m.routeErr
	}
	e := m.Engine
	if !e.trained {
		return nil, nil, ErrNotTrained
	}
	// A unit draws only from its own stream, so the unit order of the
	// selections is free; every decision is made before the first
	// escalation claims anything.
	e.commit(m.units)
	pool, rows := &e.pool, m.layRuns()
	if len(m.units) == 1 {
		pool.scores = slices.Grow(pool.scores[:0], rows)[:rows]
	} else {
		pool.scores = make([]float64, rows)
		defer func() { pool.scores = nil }()
	}
	var tally scoreTally
	err := e.fanOut(ctx, rows, &tally)
	e.metrics.observeScoring(tally)
	if err != nil {
		return nil, nil, err
	}
	preds := make([]policy.Prediction, len(e.prep.files))
	for i := range m.units {
		e.selectLayout(&m.units[i], preds)
	}
	return m.merge(preds), preds, nil
}

// fanOut scores every span laid in the pool, whose rows total rows, on up
// to Config.Parallelism goroutines, and adds the rows and the time to
// tally.
func (e *Engine) fanOut(ctx context.Context, rows int, tally *scoreTally) error {
	pool := &e.pool
	if len(pool.spans) == 0 {
		return nil
	}
	start := time.Now() //geomancy:nondeterministic telemetry timestamp: scoring duration is reported, never fed back into decisions
	workers := min(e.cfg.Parallelism, len(pool.spans))
	for len(pool.lanes) < workers {
		pool.lanes = append(pool.lanes, &scoreLane{})
	}
	err := parallelFor(ctx, len(pool.spans), workers, func(w, i int) {
		s := pool.spans[i]
		e.scoreRun(s.u, pool.lanes[w], s.lo, s.hi)
	})
	tally.rows += rows
	tally.took += time.Since(start) //geomancy:nondeterministic telemetry timestamp: scoring duration is reported, never fed back into decisions
	return err
}

// scoreRun takes unit u's run of prepared tasks lo to hi through scoring on
// lane l: it writes the run's candidate rows from the features prepare
// resolved into the lane's input block — each task's file columns scaled
// once and copied into its rows, beside each row's device column —
// forwards them, writes each score into the decision's score slice, and
// picks each file's greedy destination. Runs touch disjoint tasks and scores, and nothing here
// draws from an RNG, so runs may score in any order on any worker.
func (e *Engine) scoreRun(u *shardUnit, l *scoreLane, lo, hi int) {
	short, files := u.short, e.prep.files
	tasks := u.tasks[lo:hi]
	last := &tasks[len(tasks)-1]
	base := int(tasks[0].base)
	var out *mat.Matrix
	if rows := int(last.base) + last.rows(short) - base; rows > 0 {
		l.in = mat.Grow(l.in, rows, featureCount)
		for i := range tasks {
			t := &tasks[i]
			file := e.fileColumns(t.feat, files[t.file].ID)
			for k, j := range t.devices(&l.devs, short) {
				row := l.in.Row(int(t.base) - base + k)
				copy(row, file[:])
				row[fsidColumn] = e.deviceColumn(j)
			}
		}
		out = e.net.ForwardBatch(l.in, nil, &l.scratch)
	}
	for i := range tasks {
		t := &tasks[i]
		devs := t.devices(&l.devs, short)
		scores := e.pool.scores[t.base:][:len(devs)]
		for k := range devs {
			raw := DecodeTarget(e.targetScaler.Inverse(clamp01(out.At(int(t.base)-base+k, 0))))
			scores[k] = nn.AdjustPrediction(raw, e.valMetrics)
		}
		t.pick = int32(e.greedyPick(devs, scores, files[t.file].Size))
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
