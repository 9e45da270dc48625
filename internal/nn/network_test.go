package nn

import (
	"math"
	"math/rand"
	"testing"

	"geomancy/internal/mat"
)

// synthDataset builds a dataset where the target is a smooth function of
// the features, rich enough to require a nonlinear fit.
func synthDataset(rng *rand.Rand, n, z int) *Dataset {
	x := mat.New(n, z)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < z; j++ {
			v := rng.Float64()
			x.Set(i, j, v)
			s += v * float64(j+1)
		}
		y[i] = 0.3 + 0.5*math.Sin(s)*math.Sin(s) // in (0,1)
	}
	return NewDataset(x, y)
}

// temporalDataset makes targets depend on the previous rows so recurrent
// models have signal to exploit.
func temporalDataset(rng *rand.Rand, n, z int) *Dataset {
	x := mat.New(n, z)
	y := make([]float64, n)
	prev := 0.5
	for i := 0; i < n; i++ {
		for j := 0; j < z; j++ {
			x.Set(i, j, rng.Float64())
		}
		y[i] = 0.7*prev + 0.3*x.At(i, 0)
		prev = y[i]
	}
	return NewDataset(x, y)
}

func TestFitReducesLossDense(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	ds := synthDataset(rng, 400, 4)
	net := NewNetwork(4).AddDense(16, ReLU, rng).AddDense(8, ReLU, rng).AddDense(1, Linear, rng)

	var first, last float64
	_, err := net.Fit(ds, FitConfig{
		Epochs: 40, BatchSize: 32, Optimizer: &SGD{LR: 0.05}, Rng: rng,
		Verbose: func(epoch int, loss float64) {
			if epoch == 0 {
				first = loss
			}
			last = loss
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !(last < first*0.5) {
		t.Errorf("loss did not halve: first %g, last %g", first, last)
	}
}

func TestFitReducesLossRecurrent(t *testing.T) {
	for _, build := range []struct {
		name string
		add  func(n *Network, rng *rand.Rand)
	}{
		{"SimpleRNN", func(n *Network, rng *rand.Rand) { n.AddSimpleRNN(6, Tanh, rng) }},
		{"LSTM", func(n *Network, rng *rand.Rand) { n.AddLSTM(6, Tanh, rng) }},
		{"GRU", func(n *Network, rng *rand.Rand) { n.AddGRU(6, Tanh, rng) }},
	} {
		t.Run(build.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(21))
			ds := temporalDataset(rng, 300, 3)
			net := NewNetwork(3)
			net.Window = 6
			build.add(net, rng)
			net.AddDense(1, Linear, rng)

			var first, last float64
			_, err := net.Fit(ds, FitConfig{
				Epochs: 30, BatchSize: 16, Optimizer: &SGD{LR: 0.05}, Rng: rng,
				Verbose: func(epoch int, loss float64) {
					if epoch == 0 {
						first = loss
					}
					last = loss
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if !(last < first*0.7) {
				t.Errorf("%s loss did not drop 30%%: first %g, last %g", build.name, first, last)
			}
		})
	}
}

func TestFitEmptyDataset(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	net := NewNetwork(2).AddDense(1, Linear, rng)
	ds := NewDataset(mat.New(0, 2), nil)
	if _, err := net.Fit(ds, FitConfig{Epochs: 1}); err != ErrNoData {
		t.Errorf("Fit on empty dataset = %v, want ErrNoData", err)
	}
}

func TestRecurrentNeedsFullWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	net := NewNetwork(2)
	net.Window = 10
	net.AddSimpleRNN(3, Tanh, rng).AddDense(1, Linear, rng)
	// Only 5 rows — fewer than the window — so no usable samples.
	ds := synthDataset(rng, 5, 2)
	if _, err := net.Fit(ds, FitConfig{Epochs: 1}); err != ErrNoData {
		t.Errorf("Fit with short history = %v, want ErrNoData", err)
	}
	if preds, _ := net.Predict(ds); preds != nil {
		t.Error("Predict with short history should return nil")
	}
}

func TestPredictAlignment(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	ds := synthDataset(rng, 50, 3)

	dense := NewNetwork(3).AddDense(4, ReLU, rng).AddDense(1, Linear, rng)
	preds, first := dense.Predict(ds)
	if len(preds) != 50 || first != 0 {
		t.Errorf("dense Predict: %d preds, first anchor %d; want 50 preds starting at 0", len(preds), first)
	}

	rec := NewNetwork(3)
	rec.Window = 8
	rec.AddGRU(4, Tanh, rng).AddDense(1, Linear, rng)
	preds, first = rec.Predict(ds)
	if len(preds) != 43 || first != 7 {
		t.Errorf("recurrent Predict: %d preds, first anchor %d; want 43 preds starting at 7", len(preds), first)
	}
}

func TestPredictOne(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	dense := NewNetwork(2).AddDense(3, ReLU, rng).AddDense(1, Linear, rng)
	v := dense.PredictOne([][]float64{{0.5, 0.2}})
	if math.IsNaN(v) {
		t.Error("PredictOne returned NaN")
	}
	// Consistency with batch Forward.
	x := mat.FromRows([][]float64{{0.5, 0.2}})
	if got := dense.Forward(x, nil).At(0, 0); got != v {
		t.Errorf("PredictOne %v != Forward %v", v, got)
	}

	rec := NewNetwork(2)
	rec.Window = 3
	rec.AddLSTM(3, Tanh, rng).AddDense(1, Linear, rng)
	rows := [][]float64{{0.1, 0.2}, {0.3, 0.4}, {0.5, 0.6}}
	if v := rec.PredictOne(rows); math.IsNaN(v) {
		t.Error("recurrent PredictOne returned NaN")
	}
}

func TestPredictOnePanicsOnWrongShape(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	rec := NewNetwork(2)
	rec.Window = 3
	rec.AddLSTM(3, Tanh, rng).AddDense(1, Linear, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong window length")
		}
	}()
	rec.PredictOne([][]float64{{0.1, 0.2}})
}

func TestRecurrentMustBeFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	net := NewNetwork(2).AddDense(3, ReLU, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for recurrent layer after dense")
		}
	}()
	net.AddLSTM(3, Tanh, rng)
}

func TestMSELossKnownValues(t *testing.T) {
	pred := mat.FromSlice(2, 1, []float64{1, 3})
	target := mat.FromSlice(2, 1, []float64{0, 1})
	loss, grad := MSELoss(pred, target)
	if want := (1.0 + 4.0) / 2; loss != want {
		t.Errorf("loss = %v, want %v", loss, want)
	}
	if grad.At(0, 0) != 1 || grad.At(1, 0) != 2 {
		t.Errorf("grad = %v, want [1 2]", grad)
	}
}

func TestNetworkString(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	net := NewNetwork(6).AddDense(96, ReLU, rng).AddDense(1, Linear, rng)
	want := "96 (Dense) ReLU, 1 (Dense) Linear"
	if got := net.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestParamCount(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	net := NewNetwork(4).AddDense(8, ReLU, rng).AddDense(1, Linear, rng)
	// 4*8+8 + 8*1+1 = 49
	if got := net.ParamCount(); got != 49 {
		t.Errorf("ParamCount = %d, want 49", got)
	}
}

func TestDivergenceReportedNotPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	ds := synthDataset(rng, 200, 4)
	net := NewNetwork(4).AddDense(32, ReLU, rng).AddDense(1, Linear, rng)
	// Absurd learning rate forces numeric blow-up.
	loss, err := net.Fit(ds, FitConfig{Epochs: 30, BatchSize: 16, Optimizer: &SGD{LR: 1e6}, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(loss) && !math.IsInf(loss, 0) && loss < 1e10 {
		t.Skip("training unexpectedly stable at extreme LR")
	}
	m := net.Evaluate(ds)
	if !m.Diverged {
		t.Error("Evaluate should report divergence after numeric blow-up")
	}
}
