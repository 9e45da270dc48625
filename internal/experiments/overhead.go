package experiments

import (
	"fmt"
	"geomancy/internal/rng"
	"sort"
	"time"

	"geomancy/internal/core"
	"geomancy/internal/features"
	"geomancy/internal/mat"
	"geomancy/internal/nn"
	"geomancy/internal/trace"
)

// OverheadResult reproduces the §VIII overhead study: model 1 training and
// prediction time with the six live-system features and with thirteen
// features selected from the EOS logs.
type OverheadResult struct {
	Six      OverheadRow
	Thirteen OverheadRow
}

// OverheadRow is one configuration's measurement.
type OverheadRow struct {
	Features     int
	Samples      int
	TrainTime    time.Duration
	PredictTime  time.Duration // single-prediction latency
	PredictBatch time.Duration // full test-partition prediction
	Metrics      nn.Metrics
}

// thirteenFields are the EOS-log features of the paper's 13-metric
// configuration: the six live features plus the millisecond parts and the
// next most informative counters.
var thirteenFields = []string{
	"rb", "wb", "ots", "otms", "cts", "ctms", "fid", "fsid",
	"nrc", "nwc", "osize", "csize", "lid",
}

// Overhead measures train/predict cost for Z = 6 and Z = 13 on synthetic
// EOS telemetry of the configured size.
func Overhead(opts Options) (*OverheadResult, error) {
	opts = opts.withDefaults()
	gen := trace.NewGenerator(trace.GeneratorConfig{Seed: opts.Seed, Records: opts.TraceRecords})
	recs := gen.Generate(opts.TraceRecords)

	six, err := overheadFor(recs, 6, opts)
	if err != nil {
		return nil, err
	}
	thirteen, err := overheadFor(recs, 13, opts)
	if err != nil {
		return nil, err
	}
	return &OverheadResult{Six: six, Thirteen: thirteen}, nil
}

func overheadFor(recs []trace.EOSRecord, z int, opts Options) (OverheadRow, error) {
	ds, scaler, err := eosDataset(recs, z)
	if err != nil {
		return OverheadRow{}, err
	}
	rng := rng.NewRand(opts.Seed + int64(z))
	net, err := nn.BuildModel(1, z, rng)
	if err != nil {
		return OverheadRow{}, err
	}
	train, _, test := ds.Split()

	start := time.Now()
	if _, err := net.Fit(train, nn.FitConfig{
		Epochs:    opts.Epochs,
		BatchSize: 32,
		Optimizer: &nn.SGD{LR: 0.05},
		Rng:       rng,
	}); err != nil {
		return OverheadRow{}, err
	}
	trainTime := time.Since(start)

	start = time.Now()
	preds, first := net.Predict(test)
	batchTime := time.Since(start)

	// Single-prediction latency: one feature row through the net.
	one := make([]float64, z)
	copy(one, test.X.Row(0))
	start = time.Now()
	const reps = 200
	for i := 0; i < reps; i++ {
		net.PredictOne([][]float64{one})
	}
	oneTime := time.Since(start) / reps

	return OverheadRow{
		Features:     z,
		Samples:      ds.Len(),
		TrainTime:    trainTime,
		PredictTime:  oneTime,
		PredictBatch: batchTime,
		Metrics:      denormMetrics(preds, test, first, scaler),
	}, nil
}

// eosDataset builds a normalized dataset from EOS records using the first
// z fields of the 13-feature list, returning the target scaler for
// denormalized error reporting.
func eosDataset(recs []trace.EOSRecord, z int) (*nn.Dataset, *features.ScalarScaler, error) {
	if z > len(thirteenFields) {
		return nil, nil, fmt.Errorf("experiments: %d features exceeds the 13-feature set", z)
	}
	fieldPos := make([]int, z)
	for i, name := range thirteenFields[:z] {
		pos := -1
		for j, fn := range trace.FieldNames {
			if fn == name {
				pos = j
				break
			}
		}
		if pos < 0 {
			return nil, nil, fmt.Errorf("experiments: unknown EOS field %q", name)
		}
		fieldPos[i] = pos
	}
	sorted := make([]trace.EOSRecord, len(recs))
	copy(sorted, recs)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].OTS < sorted[j].OTS })

	rows := make([][]float64, len(sorted))
	targets := make([]float64, len(sorted))
	for i := range sorted {
		all := sorted[i].Fields()
		row := make([]float64, z)
		for c, p := range fieldPos {
			row[c] = all[p]
		}
		rows[i] = row
		targets[i] = sorted[i].Throughput()
	}
	targets = features.MovingAverage(targets, 8)
	for i := range targets {
		targets[i] = core.EncodeTarget(targets[i])
	}

	var fs features.MinMaxScaler
	x := fs.FitTransform(mat.FromRows(rows))
	ts := &features.ScalarScaler{}
	ts.Fit(targets)
	return nn.NewDataset(x, ts.TransformAll(targets)), ts, nil
}

// Table renders the overhead study.
func (r *OverheadResult) Table() *Table {
	t := &Table{
		Title:  "§VIII — training and prediction overhead of model 1",
		Header: []string{"features", "samples", "train time (s)", "predict one (ms)", "predict test set (ms)", "MARE (%)"},
	}
	for _, row := range []OverheadRow{r.Six, r.Thirteen} {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", row.Features),
			fmt.Sprintf("%d", row.Samples),
			fmt.Sprintf("%.3f", row.TrainTime.Seconds()),
			fmt.Sprintf("%.3f", float64(row.PredictTime.Microseconds())/1000),
			fmt.Sprintf("%.1f", float64(row.PredictBatch.Microseconds())/1000),
			row.Metrics.String(),
		})
	}
	return t
}
