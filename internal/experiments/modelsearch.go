package experiments

import (
	"fmt"
	"geomancy/internal/features"
	"geomancy/internal/rng"
	"strings"
	"time"

	"geomancy/internal/nn"
)

// Table1 renders the model zoo — the paper's Table I.
func Table1() *Table {
	t := &Table{
		Title:  "Table I — model architectures (Z = feature count)",
		Header: []string{"model", "components"},
	}
	for n := 1; n <= nn.ModelCount; n++ {
		spec, err := nn.ModelSpec(n)
		if err != nil {
			continue
		}
		parts := make([]string, len(spec))
		for i, l := range spec {
			units := "1"
			if l.Fixed == 0 {
				if l.UnitsZ == 1 {
					units = "Z"
				} else {
					units = fmt.Sprintf("%dZ", l.UnitsZ)
				}
			}
			parts[i] = fmt.Sprintf("%s (%s) %s", units, l.Kind, l.Act)
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("Model %d", n), strings.Join(parts, ", ")})
	}
	return t
}

// ModelResult is one Table II row.
type ModelResult struct {
	Model       int
	Desc        string
	Metrics     nn.Metrics
	TrainTime   time.Duration
	PredictTime time.Duration // time to predict the full test partition
	PredictN    int
}

// Table2Result is the model-search outcome.
type Table2Result struct {
	Device  string
	Samples int
	Models  []ModelResult
}

// Table2 reproduces the paper's model search (§V-G): telemetry is gathered
// from the simulated Bluesky system, the people-mount dataset is assembled
// (12,000 entries at paper scale), and all 23 Table I architectures are
// trained with plain SGD for the configured epochs and compared on mean
// absolute relative error and train/predict time.
func Table2(opts Options) (*Table2Result, error) {
	opts = opts.withDefaults()
	tb, err := newTestbed(opts.Seed)
	if err != nil {
		return nil, err
	}
	defer tb.db.Close()
	// The paper's model search trains, validates and tests on 12,000
	// entries (§V-E): 6 × WindowX. Keep running the workload until the
	// target mount has accumulated that much telemetry.
	target := opts.WindowX * 6
	if err := tb.bootstrapUntil("people", target, opts, opts.Seed+1); err != nil {
		return nil, err
	}
	devIdx := deviceIndex(tb.cluster.DeviceNames())
	ds, scaler, err := deviceDataset(tb.db, "people", devIdx, target, 8)
	if err != nil {
		return nil, err
	}
	res := &Table2Result{Device: "people", Samples: ds.Len()}
	for n := 1; n <= nn.ModelCount; n++ {
		mr, err := evaluateModel(n, ds, scaler, opts)
		if err != nil {
			return nil, fmt.Errorf("model %d: %w", n, err)
		}
		res.Models = append(res.Models, mr)
	}
	return res, nil
}

// evaluateModel trains one zoo model on ds and measures Table II's three
// columns. Error percentages are computed on the denormalized throughput
// scale via scaler.
func evaluateModel(n int, ds *nn.Dataset, scaler *features.ScalarScaler, opts Options) (ModelResult, error) {
	rng := rng.NewRand(opts.Seed + int64(n)*101)
	net, err := nn.BuildModel(n, 6, rng)
	if err != nil {
		return ModelResult{}, err
	}
	train, _, test := ds.Split()

	start := time.Now()
	_, err = net.Fit(train, nn.FitConfig{
		Epochs:    opts.Epochs,
		BatchSize: 32,
		Optimizer: &nn.SGD{LR: 0.05},
		Rng:       rng,
	})
	trainTime := time.Since(start)
	if err != nil {
		return ModelResult{}, err
	}

	start = time.Now()
	preds, first := net.Predict(test)
	predTime := time.Since(start)
	m := denormMetrics(preds, test, first, scaler)
	return ModelResult{
		Model:       n,
		Desc:        net.String(),
		Metrics:     m,
		TrainTime:   trainTime,
		PredictTime: predTime,
		PredictN:    len(preds),
	}, nil
}

// Table renders the result as the paper's Table II.
func (r *Table2Result) Table() *Table {
	t := &Table{
		Title:  "Table II — model comparisons on predicting performance (" + r.Device + " mount)",
		Header: []string{"model", "MARE (%)", "train time (s)", "predict time (ms)"},
		Caption: fmt.Sprintf("%d telemetry samples, 60/20/20 split, plain SGD. "+
			"Diverged = failed to capture the target's mean and variation.", r.Samples),
	}
	for _, m := range r.Models {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", m.Model),
			m.Metrics.String(),
			fmt.Sprintf("%.3f", m.TrainTime.Seconds()),
			fmt.Sprintf("%.1f", float64(m.PredictTime.Microseconds())/1000),
		})
	}
	return t
}

// Table3Result is the per-mount accuracy of the deployed model.
type Table3Result struct {
	Model    int
	PerMount []MountMetrics
}

// MountMetrics is one Table III row.
type MountMetrics struct {
	Device  string
	Metrics nn.Metrics
	Samples int
}

// Table3 reproduces Table III: model 1 trained and evaluated on each
// individual storage point's telemetry.
func Table3(opts Options) (*Table3Result, error) {
	opts = opts.withDefaults()
	tb, err := newTestbed(opts.Seed)
	if err != nil {
		return nil, err
	}
	defer tb.db.Close()
	target := opts.WindowX * 6
	// var receives the least random-placement traffic; filling it fills
	// every other mount too.
	if err := tb.bootstrapUntil("var", target, opts, opts.Seed+1); err != nil {
		return nil, err
	}
	devIdx := deviceIndex(tb.cluster.DeviceNames())
	res := &Table3Result{Model: 1}
	for _, dev := range tb.cluster.DeviceNames() {
		ds, scaler, err := deviceDataset(tb.db, dev, devIdx, target, 8)
		if err != nil {
			return nil, err
		}
		mr, err := evaluateModel(1, ds, scaler, opts)
		if err != nil {
			return nil, fmt.Errorf("device %s: %w", dev, err)
		}
		res.PerMount = append(res.PerMount, MountMetrics{Device: dev, Metrics: mr.Metrics, Samples: ds.Len()})
	}
	return res, nil
}

// Table renders the result as the paper's Table III.
func (r *Table3Result) Table() *Table {
	t := &Table{
		Title:  fmt.Sprintf("Table III — prediction accuracy of model %d per storage point", r.Model),
		Header: []string{"storage point", "absolute relative error (%)", "samples"},
	}
	for _, m := range r.PerMount {
		t.Rows = append(t.Rows, []string{m.Device, m.Metrics.String(), fmt.Sprintf("%d", m.Samples)})
	}
	return t
}
