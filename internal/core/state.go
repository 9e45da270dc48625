package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"geomancy/internal/features"
	"geomancy/internal/nn"
)

// EngineState is the serializable snapshot of a DRL engine: the decision
// stream, the trained model and fitted normalization — everything a
// restored engine needs to make the exact decisions the interrupted one
// would have. The engine's Config and store binding are reconstructed
// from configuration on restore.
type EngineState struct {
	RNG uint64
	// Net is the model: its architecture, and its weights as the live
	// network's own parameter slices (nn.State), which a checkpoint writes
	// as a block of its own.
	Net     nn.State
	Devices []string

	FeatScaler   features.MinMaxState
	TargetScaler features.ScalarState
	ValMetrics   nn.Metrics
	Trained      bool
	// TrainedSeq is the newest record Seq the last full fit read. A
	// snapshot without it (zero) counts every record as new, so the next
	// full fit trains the full Config.Epochs.
	TrainedSeq uint64

	// Candidate-pruning bookkeeping (Config.TopK > 0): the decision
	// counter anchors the full-rescan cadence and the watermark the dirty
	// set, so a restored run's pruned decisions replay bit-for-bit; a
	// sharded coordinator's shards decide on this cadence too. Nothing per
	// file is captured: scores live for one decision, and a restored
	// engine refetches the feature ingredients, deterministically, from
	// the restored ReplayDB.
	DecisionCount uint64
	LastWatermark uint64
}

// State captures the engine mid-run. The model's weights are not copied:
// the state is valid until the engine trains again, so encode it first.
func (e *Engine) State() (EngineState, error) {
	return EngineState{
		RNG:           e.rng.State(),
		Net:           e.net.State(),
		Devices:       append([]string(nil), e.devices...),
		FeatScaler:    e.featScaler.State(),
		TargetScaler:  e.targetScaler.State(),
		ValMetrics:    e.valMetrics,
		Trained:       e.trained,
		TrainedSeq:    e.trainedSeq,
		DecisionCount: e.decisionCount,
		LastWatermark: e.lastWatermark,
	}, nil
}

// RestoreState overwrites the engine with a previously captured snapshot,
// refusing first, with nothing changed, a network the dense scorer cannot
// run and a snapshot a later decision would index past or mis-route: a
// fitted feature scaler narrower than the feature vector, or a device list
// other than the one the engine was built over (ErrInvalidState). The
// feature cache starts empty.
func (e *Engine) RestoreState(st EngineState) error {
	net, err := st.Net.Network()
	if err != nil {
		return fmt.Errorf("core: restoring model: %w", err)
	}
	switch {
	case net.IsRecurrent():
		return fmt.Errorf("core: restoring model: %w (%s)", ErrRecurrentModel, net)
	case net.InSize != featureCount:
		return fmt.Errorf("core: restoring model: %d inputs, the engine scores %d features", net.InSize, featureCount)
	case net.OutSize() != 1:
		return fmt.Errorf("core: restoring model: %d outputs, the engine scores one", net.OutSize())
	}
	if fs := st.FeatScaler; fs.Fitted && (len(fs.Min) < featureCount || len(fs.Max) < featureCount) {
		return fmt.Errorf("core: restoring feature scaler: %w: %d minima and %d maxima for %d features",
			ErrInvalidState, len(fs.Min), len(fs.Max), featureCount)
	}
	if !slices.Equal(st.Devices, e.devices) {
		return fmt.Errorf("core: restoring devices: %w: the snapshot scores %q, the engine %q",
			ErrInvalidState, st.Devices, e.devices)
	}
	e.rng.SetState(st.RNG)
	e.net = net
	e.featScaler.RestoreState(st.FeatScaler)
	e.targetScaler.RestoreState(st.TargetScaler)
	e.valMetrics = st.ValMetrics
	e.trained = st.Trained
	e.trainedSeq = st.TrainedSeq
	e.decisionCount = st.DecisionCount
	e.lastWatermark = st.LastWatermark
	clear(e.cache)
	return nil
}

// GapFileState is the serializable per-file estimate of a GapPredictor.
type GapFileState struct {
	FileID     int64
	LastAccess float64
	Mean       float64
	Dev        float64
	N          int64

	ReleaseMean float64
	ReleaseDev  float64
	Releases    int64
}

// GapPredictorState is the serializable snapshot of a GapPredictor.
type GapPredictorState struct {
	Files []GapFileState
}

// State captures the predictor's estimates, sorted by file ID for a
// deterministic wire form.
func (g *GapPredictor) State() GapPredictorState {
	g.mu.Lock()
	defer g.mu.Unlock()
	var st GapPredictorState
	for id, s := range g.stats {
		st.Files = append(st.Files, GapFileState{
			FileID:      id,
			LastAccess:  s.lastAccess,
			Mean:        s.mean,
			Dev:         s.dev,
			N:           s.n,
			ReleaseMean: s.releaseMean,
			ReleaseDev:  s.releaseDev,
			Releases:    s.releases,
		})
	}
	sort.Slice(st.Files, func(i, j int) bool { return st.Files[i].FileID < st.Files[j].FileID })
	return st
}

// RestoreState overwrites the predictor with a previously captured
// snapshot.
func (g *GapPredictor) RestoreState(st GapPredictorState) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.stats = make(map[int64]*gapStats, len(st.Files))
	for _, f := range st.Files {
		g.stats[f.FileID] = &gapStats{
			lastAccess:  f.LastAccess,
			mean:        f.Mean,
			dev:         f.Dev,
			n:           f.N,
			releaseMean: f.ReleaseMean,
			releaseDev:  f.ReleaseDev,
			releases:    f.Releases,
		}
	}
}

// LoopState is the serializable snapshot of a closed loop: decision-cycle
// counters and logs, plus the gap predictor when gap scheduling is
// enabled. The engine, policy, runner, cluster (with the per-file heat
// policies decide from), and replay DB snapshot themselves; the loop state
// is what remains.
type LoopState struct {
	AccessCount int64
	LastRun     int
	Movements   []MovementEvent
	TrainLog    []TrainReport
	Deferrals   []Deferral
	Skipped     []SkippedDecision
	Gaps        *GapPredictorState
}

// State captures the loop's counters and logs. The logs are the loop's own
// slices, not copies — a snapshot is encoded and dropped before the loop
// runs again, and the logs grow with the whole history — so the result is
// valid until the next run: encode it first, and do not modify it.
func (l *Loop) State() LoopState {
	st := LoopState{
		AccessCount: l.accessCount,
		LastRun:     l.lastRun,
		Movements:   l.movements,
		TrainLog:    l.trainLog,
		Deferrals:   l.deferrals,
		Skipped:     l.skipped,
	}
	if l.gaps != nil {
		g := l.gaps.State()
		st.Gaps = &g
	}
	return st
}

// Check refuses, wrapping ErrInvalidState, a loop snapshot no run writes:
// a negative access count, a last run below -1, or gap estimates whose
// IDs do not ascend strictly (GapPredictor.State sorts them), with a
// negative count, or a time, gap or deviation negative, NaN or infinite.
func (st *LoopState) Check() error {
	switch {
	case st.AccessCount < 0 || st.LastRun < -1:
		return fmt.Errorf("%w: access count %d, last run %d", ErrInvalidState, st.AccessCount, st.LastRun)
	case st.Gaps == nil:
		return nil
	}
	for i, f := range st.Gaps.Files {
		bad := f.N < 0 || f.Releases < 0 || i > 0 && f.FileID <= st.Gaps.Files[i-1].FileID
		for _, v := range [...]float64{f.LastAccess, f.Mean, f.Dev, f.ReleaseMean, f.ReleaseDev} {
			bad = bad || !(v >= 0) || math.IsInf(v, 1)
		}
		if bad {
			return fmt.Errorf("%w: gap estimate %d: %+v", ErrInvalidState, i, f)
		}
	}
	return nil
}

// RestoreState overwrites the loop's counters and logs with a previously
// captured snapshot, refusing first, with nothing changed, one Check
// refuses. Gap-predictor state enables gap scheduling if it was not.
func (l *Loop) RestoreState(st LoopState) error {
	if err := st.Check(); err != nil {
		return err
	}
	l.accessCount = st.AccessCount
	l.lastRun = st.LastRun
	l.movements = append([]MovementEvent(nil), st.Movements...)
	l.trainLog = append([]TrainReport(nil), st.TrainLog...)
	l.deferrals = append([]Deferral(nil), st.Deferrals...)
	l.skipped = append([]SkippedDecision(nil), st.Skipped...)
	if st.Gaps != nil {
		if l.gaps == nil {
			l.EnableGapScheduling()
		}
		l.gaps.RestoreState(*st.Gaps)
	}
	return nil
}
