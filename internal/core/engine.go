// Package core implements Geomancy's DRL engine (§V): the component that
// re-trains a neural network on the most recent telemetry in the ReplayDB,
// predicts the throughput of every (file, storage device) pairing —
// including the "don't move" row — and proposes the data layout with the
// highest predicted throughput, exploring randomly 10% of the time.
//
// The engine treats layout optimization as unsupervised deep reinforcement
// learning with measured throughput as the reward (§V-B): it acts (moves
// data), observes the new performance, stores it, and re-trains on the
// outcome of its own actions.
package core

import (
	"context"
	"errors"
	"fmt"
	"geomancy/internal/rng"
	"math"
	"time"

	"geomancy/internal/features"
	"geomancy/internal/nn"
	"geomancy/internal/policy"
	"geomancy/internal/replaydb"
	"geomancy/internal/telemetry"
)

// Sentinel errors of the engine. Callers match with errors.Is; the closed
// loop and the facade surface them unchanged (wrapped with context).
var (
	// ErrNoTelemetry reports an empty training window: the ReplayDB has
	// no access records for any candidate device yet.
	ErrNoTelemetry = errors.New("core: no telemetry in ReplayDB")
	// ErrNotTrained reports a layout proposal requested before the first
	// completed training cycle.
	ErrNotTrained = errors.New("core: engine not trained")
	// ErrRecurrentModel reports a recurrent Table I architecture (12–23);
	// Table II compares those offline, and the engine scores dense ones.
	ErrRecurrentModel = errors.New("core: recurrent architecture; the engine scores dense models only")
	// ErrInvalidState reports an engine snapshot that disagrees with itself
	// or with the engine's feature vector, or a loop snapshot no run could
	// have written (LoopState.Check), refused before anything is restored.
	ErrInvalidState = errors.New("core: inconsistent snapshot state")
)

// Config tunes the engine. Zero values select the paper's settings.
type Config struct {
	// ModelNumber picks the dense Table I architecture (1–11; a recurrent
	// one is ErrRecurrentModel); default 1, the model the paper deployed.
	ModelNumber int
	// Epsilon is the random-exploration rate; default 0.1 ("random
	// decisions are used by Geomancy 10% of the runs", §V-H).
	Epsilon float64
	// CooldownRuns is how many workload runs pass between layout changes;
	// default 5 ("Geomancy moves data every five runs", §VI).
	CooldownRuns int
	// WindowX is the number of most recent accesses fetched per device
	// for training; default 2000 (6 devices × 2000 = the paper's 12,000
	// training entries). NewEngine refuses a negative WindowX.
	WindowX int
	// Epochs is the epoch count of a cold full fit; default 200 (§V-G).
	// A warm full fit trains it in proportion to the records taken since
	// the last one: ceil(Epochs × new ÷ rows), at least 1 (see
	// TrainContext), so each row is trained about Epochs times over its
	// stay in the window rather than Epochs times per decision. NewEngine
	// refuses a negative Epochs.
	Epochs int
	// FixedEpochs makes every full fit train Epochs, warm or cold: the
	// paper's per-decision schedule (§V-G), kept for the paper-scale
	// reproduction.
	FixedEpochs bool
	// SmoothWindow is the moving-average window applied to ReplayDB
	// batches; default 8. 1 disables smoothing; negative selects the
	// cumulative average (for the smoothing ablation).
	SmoothWindow int
	// Seed drives exploration and weight initialization.
	Seed int64
	// Optimizer overrides SGD when set ("sgd" default, "adam" for the
	// ablation).
	Optimizer string
	// Parallelism bounds a decision's goroutines. The scoring loop takes
	// its runs of consecutive files (about nn.BlockRows candidate rows
	// each) end to end — rows written, forwarded, scores written back,
	// greedy picks made — on up to this many, under a coordinator every
	// shard's runs in one fan-out. Above 1, a Loop driving this engine also
	// prepares each decision's model-free half (dirty set, shortlist, task
	// list, feature gather; propose.go) on one helper goroutine beside the
	// policy's retrain or update, and a Loop that appends to its own
	// ReplayDB records each run's accesses on one goroutine beside the
	// simulation (Loop.RunOnceContext). It is a matter of speed only and never changes
	// a result: scoring is row-independent, the helper reads nothing the
	// fit writes and commits nothing until the fit has succeeded, the
	// recording goroutine takes the accesses in order and is joined before
	// the run returns, the layout-deciding randomness stays on one
	// goroutine, and the fit itself is not threaded — a minibatch runs
	// whole on the caller's goroutine. Default 1. NewEngine refuses a
	// negative Parallelism.
	Parallelism int
	// Target selects the modeled performance metric: "throughput" (the
	// paper's choice) or "latency" (the §V-C future-work variant — some
	// workloads are latency-sensitive). With the latency target the
	// engine minimizes predicted access duration instead of maximizing
	// predicted throughput.
	Target string
	// TopK enables candidate pruning: a decision scores each file against
	// only the top K devices by recent throughput, ranked together across
	// the cluster (plus never-probed devices and the file's current
	// device), instead of every device, and files whose telemetry has not
	// changed since the last decision keep their feature ingredients
	// instead of re-reading their history. Every candidate is scored
	// afresh each decision. 0 (the default) keeps the exhaustive
	// O(files×devices) pass on every decision — the paper's behavior,
	// bit-for-bit. NewEngine refuses a negative TopK.
	TopK int
	// FullRescanEvery is the pruning cadence: with TopK > 0, every Nth
	// decision (and always the first) falls back to the exhaustive pass,
	// scoring the full candidate space and refetching every file's
	// features.
	// Default 8. Ignored when TopK is 0. NewEngine refuses a negative
	// FullRescanEvery, which would turn the cadence rescan off.
	FullRescanEvery int
}

func (c Config) withDefaults() Config {
	if c.ModelNumber == 0 {
		c.ModelNumber = 1
	}
	if c.Epsilon == 0 {
		c.Epsilon = 0.1
	}
	if c.CooldownRuns == 0 {
		c.CooldownRuns = 5
	}
	if c.WindowX == 0 {
		c.WindowX = 2000
	}
	if c.Epochs == 0 {
		c.Epochs = 200
	}
	if c.SmoothWindow == 0 {
		c.SmoothWindow = 8
	}
	if c.Optimizer == "" {
		c.Optimizer = "sgd"
	}
	if c.Parallelism == 0 {
		c.Parallelism = 1
	}
	if c.Target == "" {
		c.Target = TargetThroughput
	}
	if c.FullRescanEvery == 0 {
		c.FullRescanEvery = 8
	}
	return c
}

// Modeling targets.
const (
	TargetThroughput = "throughput"
	TargetLatency    = "latency"
)

const (
	// learningRate is the full-cycle SGD step size (Adam takes a tenth of
	// it); updates step at DefaultUpdateLRScale of it.
	learningRate = 0.05
	// featureCount is Z, the width of appendFeatures' rows (rb, wb, ots,
	// cts, fid, fsid) and so of the network's input layer.
	featureCount = 6
	// fsidColumn is the device's column, the last: every other column of
	// a candidate row describes the file.
	fsidColumn = featureCount - 1
	// batchSize is the SGD mini-batch size.
	batchSize = 32
	// fileHistory is how many recent accesses a file's candidate rows read.
	fileHistory = 8
)

// TrainReport summarizes one training cycle.
type TrainReport struct {
	Samples    int
	Epochs     int // epochs the cycle trained
	FinalLoss  float64
	Validation nn.Metrics
	Duration   time.Duration
}

// TelemetryStore is the view of the ReplayDB the engine trains from. The
// local *replaydb.DB satisfies it directly; agents.RemoteStore provides
// the same view over the Interface Daemon's wire protocol, preserving the
// paper's decoupling ("the DRL engine requests training data from the
// ReplayDB via the Interface Daemon", §V-E). The engine reads a store that
// can also walk its windows in place (windowWalker, as *replaydb.DB and
// agents.RemoteStore do) without copying a record; any other store it
// reads through these copies.
type TelemetryStore interface {
	// RecentByDevice returns up to n most recent accesses on a device,
	// oldest first.
	RecentByDevice(device string, n int) []replaydb.AccessRecord
	// RecentByFile returns up to n most recent accesses of a file,
	// oldest first.
	RecentByFile(fileID int64, n int) []replaydb.AccessRecord
}

// Engine is the DRL engine. It owns one device list, whose indices are the
// fsid feature the model learns and the one device index space of every
// decision, and every piece of decision state a decision keeps: the
// feature cache, the full-rescan cadence, the dirty watermark, the
// validator, the summary source and the scoring pool. A decision's units
// (shardUnit: the lone engine's one, or a coordinator's device groups)
// each own only a group of those indices and the stream their selection
// draws from.
type Engine struct {
	cfg  Config         //geomancy:ephemeral construction config, re-supplied by NewEngine on restore
	db   TelemetryStore //geomancy:ephemeral external store handle, re-wired at construction
	walk windowWalker   //geomancy:ephemeral in-place view of db, re-wired at construction
	rng  *rng.RNG

	// The model: what a fit writes and every unit scores through — the
	// network, the fitted normalization, the held-out metrics behind the MAE
	// adjustment and whether a full fit has completed.
	net          *nn.Network
	featScaler   features.MinMaxScaler
	targetScaler features.ScalarScaler
	valMetrics   nn.Metrics
	trained      bool

	devices  []string
	devIndex map[string]int //geomancy:ephemeral derived index over devices, rebuilt at construction

	// trainedSeq is the newest record Seq the last successful full fit
	// read: the next full fit's budget counts the records above it.
	trainedSeq uint64

	// valid is the select stage's placement validator (select.go): can the
	// device receive a file of this size right now? NewModel installs
	// storagesim.(*Cluster).CanPlace; nil means every device can.
	valid func(device string, size int64) error

	// The scoring loop's pool (propose.go), reused across decisions, and
	// the engine's share of the decision between its halves.
	pool scorePool //geomancy:ephemeral per-worker scoring buffers, content meaningless between decisions
	prep prepared  //geomancy:ephemeral the decision between its halves, rebuilt by every prepare

	// Candidate-pruning state (cfg.TopK > 0); see prune.go.
	//geomancy:ephemeral store-backed change feed, re-wired at construction; progress is serialized as LastWatermark
	tracker       ChangeTracker
	summarySource SummarySource
	decisionCount uint64
	lastWatermark uint64
	cache         map[int64]*fileCache //geomancy:ephemeral per-file feature ingredients, refetched from the restored ReplayDB

	metrics engineMetrics //geomancy:ephemeral telemetry handles, re-installed by SetMetrics
}

// engineMetrics holds the engine's pre-resolved telemetry handles; all
// fields are nil (no-op) until SetMetrics installs a registry.
type engineMetrics struct {
	trainings    *telemetry.Counter
	trainErrors  *telemetry.Counter
	duration     *telemetry.Gauge
	durationHist *telemetry.Histogram
	loss         *telemetry.Gauge
	samples      *telemetry.Gauge
	epochs       *telemetry.Gauge
	valMARE      *telemetry.Gauge
	inferBatch   *telemetry.Histogram
	inferSeconds *telemetry.Gauge
}

// SetMetrics points the engine's training instrumentation at reg: a
// training-cycle counter, duration/loss/sample-count/epoch gauges refreshed
// every cycle, and a duration histogram. A nil registry detaches.
func (e *Engine) SetMetrics(reg *telemetry.Registry) {
	e.metrics = engineMetrics{
		trainings:    reg.Counter(telemetry.MetricTrainingsTotal),
		trainErrors:  reg.Counter(telemetry.MetricTrainingErrorsTotal),
		duration:     reg.Gauge(telemetry.MetricTrainingDuration),
		durationHist: reg.Histogram(telemetry.MetricTrainingDurationHist, telemetry.DefDurationBuckets),
		loss:         reg.Gauge(telemetry.MetricTrainingLoss),
		samples:      reg.Gauge(telemetry.MetricTrainingSamples),
		epochs:       reg.Gauge(telemetry.MetricTrainingEpochs),
		valMARE:      reg.Gauge(telemetry.MetricTrainingValidationMAE),
		inferBatch:   reg.Histogram(telemetry.MetricInferenceBatchSize, telemetry.DefBatchSizeBuckets),
		inferSeconds: reg.Gauge(telemetry.MetricInferenceDuration),
	}
}

// observeScoring reports one decision's scoring once, over all its units:
// its rows into the batch-size histogram, its time into the duration
// gauge. A call that scored nothing reports nothing.
func (m *engineMetrics) observeScoring(t scoreTally) {
	if t.rows > 0 {
		m.inferSeconds.Set(t.took.Seconds())
		m.inferBatch.Observe(float64(t.rows))
	}
}

// NewEngine builds an engine over the ReplayDB for the given candidate
// devices (the paper's refreshed configuration file of storage points a
// file may occupy, §V-F).
func NewEngine(db TelemetryStore, devices []string, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if len(devices) == 0 {
		return nil, fmt.Errorf("core: engine needs at least one candidate device")
	}
	if cfg.Target != TargetThroughput && cfg.Target != TargetLatency {
		return nil, fmt.Errorf("core: unknown modeling target %q", cfg.Target)
	}
	if cfg.TopK < 0 {
		return nil, fmt.Errorf("core: negative Config.TopK %d", cfg.TopK)
	}
	if cfg.FullRescanEvery < 0 {
		return nil, fmt.Errorf("core: negative Config.FullRescanEvery %d", cfg.FullRescanEvery)
	}
	if cfg.WindowX < 0 {
		return nil, fmt.Errorf("core: negative Config.WindowX %d", cfg.WindowX)
	}
	if cfg.Epochs < 0 {
		return nil, fmt.Errorf("core: negative Config.Epochs %d", cfg.Epochs)
	}
	if cfg.Parallelism < 0 {
		return nil, fmt.Errorf("core: negative Config.Parallelism %d", cfg.Parallelism)
	}
	r := rng.New(cfg.Seed)
	net, err := nn.BuildModel(cfg.ModelNumber, featureCount, r.Rand)
	if err != nil {
		return nil, fmt.Errorf("core: building model: %w", err)
	}
	if net.IsRecurrent() {
		return nil, fmt.Errorf("%w (model %d)", ErrRecurrentModel, cfg.ModelNumber)
	}
	e := &Engine{
		cfg:      cfg,
		db:       db,
		walk:     walkerOf(db),
		rng:      r,
		net:      net,
		devices:  append([]string(nil), devices...),
		devIndex: make(map[string]int, len(devices)),
		cache:    make(map[int64]*fileCache),
	}
	for i, d := range devices {
		e.devIndex[d] = i
	}
	// Dirty tracking is a capability, not a requirement: the local
	// *replaydb.DB provides it, a RemoteStore may not. Without it the
	// pruned path still shortlists devices but treats every file as
	// changed on every decision.
	e.tracker, _ = db.(ChangeTracker)
	return e, nil
}

// logBytes is the volume-feature transform.
func logBytes(v float64) float64 {
	if v < 0 {
		v = 0
	}
	return math.Log1p(v)
}

// EncodeTarget maps a raw performance value into model space. Targets are
// modeled in log scale: device throughputs span three-plus decades, and a
// squared-error fit in linear space ignores exactly the small values whose
// relative error Tables II/III report. In log space, MSE is relative
// error.
func EncodeTarget(v float64) float64 {
	if v < 0 {
		v = 0
	}
	return math.Log1p(v)
}

// DecodeTarget inverts EncodeTarget.
func DecodeTarget(v float64) float64 {
	return math.Expm1(v)
}

// targetValue extracts the modeled metric from a record: throughput, or
// the open-to-close duration for the latency target.
func (e *Engine) targetValue(rec *replaydb.AccessRecord) float64 {
	if e.cfg.Target == TargetLatency {
		open := float64(rec.OpenTS) + float64(rec.OpenTMS)/1000
		cls := float64(rec.CloseTS) + float64(rec.CloseTMS)/1000
		d := cls - open
		if d < 0 {
			return 0
		}
		return d
	}
	return rec.Throughput
}

// betterScore converts a predicted metric into a maximize-me score.
func (e *Engine) betterScore(pred float64) float64 {
	if e.cfg.Target == TargetLatency {
		return -pred
	}
	return pred
}

// Online-update defaults: the incremental cadence fine-tunes on a small
// recent window for a couple of epochs, a fraction of a full cycle's
// cost. Updates step at a fraction of the full-training learning rate:
// the window is tiny and recent-only, so a full-size step lets the
// newest accesses overwrite the ranking learned across the whole
// telemetry history instead of nudging it toward the drift.
const (
	DefaultUpdateWindow  = 96
	DefaultUpdateEpochs  = 2
	DefaultUpdateLRScale = 0.1
)

// fitSpec is everything that distinguishes a full training cycle from an
// incremental update.
type fitSpec struct {
	window  int     // most recent accesses fetched per device
	epochs  int     // training epochs (a warm full fit trains a share; see TrainContext)
	lrScale float64 // step size as a fraction of learningRate
	// full refits the scalers, trains on the 60% partition of the 60/20/20
	// split and refreshes the validation metrics from the rest; an update
	// keeps all three and trains on its whole (too small to split) window.
	full bool
}

// TrainContext re-trains the network on the freshest ReplayDB window using
// the paper's 60/20/20 split, and refreshes the MAE adjustment from the
// validation partition ("All requests for data contain the X most recent
// accesses for each of the storage devices from the ReplayDB, thereby
// creating a batch", §V-E). A cold fit trains Config.Epochs epochs. A warm
// one (the engine is already trained) trains ceil(Epochs × new ÷ rows),
// at least one and at most Epochs, where rows is the window's size and new
// the number of records the store took since the last full fit read its
// window (the Seq span between that window's newest record and this one's);
// Config.FixedEpochs trains Epochs every time. The scalers are refitted
// either way. ctx is checked between training epochs, and a cancelled
// cycle returns ctx.Err() without refreshing the validation metrics or
// the mark of what the last full fit read; its refitted scalers and
// half-trained weights stay in the model, which the next decision scores
// through.
func (e *Engine) TrainContext(ctx context.Context) (TrainReport, error) {
	return e.fit(ctx, fitSpec{window: e.cfg.WindowX, epochs: e.cfg.Epochs, lrScale: 1, full: true})
}

// UpdateContext fine-tunes the trained model on only the newest
// DefaultUpdateWindow accesses per device for DefaultUpdateEpochs epochs,
// reusing the scalers fitted by the last full training cycle instead of
// refitting them. Holding the normalization fixed is what makes the
// update incremental: the newest telemetry — say, a shifted hotspot —
// dominates the gradient instead of being averaged back into a
// window-wide refit, so the model starts tracking drift on the very next
// decision. Validation metrics and the MAE adjustment stay as the last
// full cycle computed them; an engine with no completed full cycle
// returns ErrNotTrained, an empty window ErrNoTelemetry.
func (e *Engine) UpdateContext(ctx context.Context) (TrainReport, error) {
	return e.fit(ctx, fitSpec{window: DefaultUpdateWindow, epochs: DefaultUpdateEpochs, lrScale: DefaultUpdateLRScale})
}

// fit runs the cycle spec describes and reports it on the training
// metrics; every failure counts as a training error.
func (e *Engine) fit(ctx context.Context, spec fitSpec) (TrainReport, error) {
	rep, err := e.fitOnce(ctx, spec)
	if err != nil {
		e.metrics.trainErrors.Inc()
		return rep, err
	}
	e.metrics.trainings.Inc()
	e.metrics.duration.Set(rep.Duration.Seconds())
	e.metrics.durationHist.Observe(rep.Duration.Seconds())
	e.metrics.loss.Set(rep.FinalLoss)
	e.metrics.samples.Set(float64(rep.Samples))
	e.metrics.epochs.Set(float64(rep.Epochs))
	e.metrics.valMARE.Set(rep.Validation.MARE)
	return rep, nil
}

func (e *Engine) fitOnce(ctx context.Context, spec fitSpec) (TrainReport, error) {
	if !spec.full && !e.trained {
		return TrainReport{}, ErrNotTrained
	}
	lr := learningRate * spec.lrScale
	var opt nn.Optimizer
	switch e.cfg.Optimizer {
	case "sgd":
		opt = &nn.SGD{LR: lr}
	case "adam":
		opt = nn.NewAdam(lr / 10)
	default:
		return TrainReport{}, fmt.Errorf("core: unknown optimizer %q", e.cfg.Optimizer)
	}
	// The training set is built, scaled and trained on in place, and dies
	// with this call: nothing window-sized is kept on the engine. The
	// target callback sees each row's record once, so it also finds the
	// newest Seq the window holds.
	newest := e.trainedSeq
	x, targets := TrainingSet(e.db, e.devices, e.devIndex, spec.window,
		func(rec *replaydb.AccessRecord) float64 {
			newest = max(newest, rec.Seq)
			return EncodeTarget(e.targetValue(rec))
		}, e.cfg.SmoothWindow)
	if x.Rows == 0 {
		return TrainReport{}, ErrNoTelemetry
	}
	if spec.full {
		e.featScaler.Fit(x)
		e.targetScaler.Fit(targets)
	}
	for r := 0; r < x.Rows; r++ {
		row := x.Row(r)
		for c, v := range row {
			row[c] = e.featScaler.TransformValue(c, v)
		}
	}
	for i, v := range targets {
		targets[i] = e.targetScaler.Transform(v)
	}
	ds := nn.NewDataset(x, targets)
	train := ds
	var val *nn.Dataset
	if spec.full {
		// §V-G's 60/20/20 split: train on the first 60%, validate on the
		// next 20%; the last 20% is held out of both.
		train, val, _ = ds.Split()
		if train.Len() == 0 {
			return TrainReport{}, fmt.Errorf("core: training partition empty (%d samples)", ds.Len())
		}
	}

	// A warm full fit trains in proportion to the records the store took
	// since the last one read its window: every Seq above that fit's
	// newest, up to this window's. As many as the window holds, or more,
	// train the full budget.
	epochs := spec.epochs
	if span := newest - e.trainedSeq; spec.full && e.trained && !e.cfg.FixedEpochs && span < uint64(x.Rows) {
		epochs = max(1, (spec.epochs*int(span)+x.Rows-1)/x.Rows)
	}

	start := time.Now() //geomancy:nondeterministic telemetry timestamp: training duration is reported, never fed back into decisions
	loss, err := e.net.Fit(train, nn.FitConfig{
		Epochs:    epochs,
		BatchSize: batchSize,
		Optimizer: opt,
		Rng:       e.rng.Rand,
		Ctx:       ctx,
	})
	if err != nil {
		return TrainReport{}, err
	}
	rep := TrainReport{
		Samples:   ds.Len(),
		Epochs:    epochs,
		FinalLoss: loss,
		Duration:  time.Since(start), //geomancy:nondeterministic telemetry timestamp: training duration is reported, never fed back into decisions
	}
	if spec.full {
		rep.Validation = e.evaluateDenorm(val)
		e.valMetrics = rep.Validation
		e.trained = true
		e.trainedSeq = newest
	} else {
		// The last full cycle's held-out metrics still describe the model.
		rep.Validation = e.valMetrics
	}
	return rep, nil
}

// evaluateDenorm computes prediction metrics on the original throughput
// scale. Relative errors on normalized targets explode near the range
// minimum; real throughputs are safely bounded away from zero, matching
// how the paper reports its error percentages. It decodes the predictions
// and ds's anchor targets in place — ds is the validation partition of
// the fit's own training set, dead once scored — so the metrics cost no
// per-row slice beyond the predictions.
func (e *Engine) evaluateDenorm(ds *nn.Dataset) nn.Metrics {
	preds, first := e.net.Predict(ds)
	if len(preds) == 0 {
		return nn.Metrics{Diverged: true}
	}
	targets := ds.Y[first:]
	for i, p := range preds {
		targets[i] = DecodeTarget(e.targetScaler.Inverse(targets[i]))
		preds[i] = DecodeTarget(e.targetScaler.Inverse(clamp01(p)))
	}
	return nn.EvaluatePredictions(preds, targets)
}

// fileFeatures are the raw ingredients of a file's candidate rows: the
// averaged recent transfer volumes and the latest close timestamp. They
// depend only on the file's telemetry and size — not on model weights or
// scalers — so the pruning plane caches them until the file's telemetry
// changes (see prune.go).
type fileFeatures struct {
	rb, wb, ts float64
}

// gatherFileFeatures fetches a file's fileHistory most recent accesses
// from the ReplayDB and reduces them to candidate-row ingredients. A file
// with no recorded telemetry gets a symmetric cold-start prior — half its
// size split evenly between read and write volume: assuming reads only
// (the old prior) mis-ranked write-heavy cold files against devices with
// imbalanced read/write bandwidth, visible on the write-ingest scenario.
func (e *Engine) gatherFileFeatures(f policy.FileInfo) fileFeatures {
	// One accumulator, so the walk's callback captures one variable.
	var acc struct {
		ff           fileFeatures
		n            int
		rbSum, wbSum float64
	}
	e.walk.EachRecentByFile(f.ID, fileHistory, func(rec *replaydb.AccessRecord) {
		acc.n++
		acc.rbSum += float64(rec.BytesRead)
		acc.wbSum += float64(rec.BytesWritten)
		acc.ff.ts = float64(rec.CloseTS) + float64(rec.CloseTMS)/1000 // the newest, once the walk ends
	})
	ff := acc.ff
	if acc.n > 0 {
		ff.rb = acc.rbSum / float64(acc.n)
		ff.wb = acc.wbSum / float64(acc.n)
	} else {
		ff.rb = float64(f.Size) / 4
		ff.wb = float64(f.Size) / 4
	}
	return ff
}

// A candidate row (featureCount wide) holds the normalized features for
// placing a file on a device: the file's columns, then the device's.
//
// fileColumns returns the normalized file columns — every column but the
// last, fsid — of a file with ingredients ff: what all of the file's
// candidate rows share.
func (e *Engine) fileColumns(ff fileFeatures, fileID int64) [fsidColumn]float64 {
	cols := [fsidColumn]float64{logBytes(ff.rb), logBytes(ff.wb), ff.ts, ff.ts, float64(fileID)}
	for c, v := range cols {
		cols[c] = e.featScaler.TransformValue(c, v)
	}
	return cols
}

// deviceColumn is the normalized fsid feature of the device at devIdx,
// whose fsid is that index.
func (e *Engine) deviceColumn(devIdx int) float64 {
	return e.featScaler.TransformValue(fsidColumn, float64(devIdx))
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// ProposeLayoutContext runs one decision of a bare engine: the decision
// body in propose.go over e alone, as a lone EngineModel's Propose runs it
// (see EngineModel.finish for what it decides).
//
//geomancy:allow testonly a decision without a policy plane or a cluster: core's engine tests and the facade's TestTopKPrunedWork drive it
func (e *Engine) ProposeLayoutContext(ctx context.Context, files []policy.FileInfo) (map[int64]string, []policy.Prediction, error) {
	return e.lone().Propose(ctx, policy.State{Files: files})
}
