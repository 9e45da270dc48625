package nn

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestSaveLoadRoundTripDense(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	ds := synthDataset(rng, 100, 4)
	net := NewNetwork(4).AddDense(8, ReLU, rng).AddDense(1, Linear, rng)
	if _, err := net.Fit(ds, FitConfig{Epochs: 3, Optimizer: &SGD{LR: 0.05}, Rng: rng}); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	in := [][]float64{{0.1, 0.9, 0.4, 0.7}}
	if got, want := loaded.PredictOne(in), net.PredictOne(in); got != want {
		t.Errorf("loaded prediction %v != original %v", got, want)
	}
	if loaded.String() != net.String() {
		t.Errorf("loaded desc %q != %q", loaded.String(), net.String())
	}
}

func TestSaveLoadRoundTripRecurrent(t *testing.T) {
	for n := 12; n <= 14; n++ {
		rng := rand.New(rand.NewSource(int64(51 + n)))
		net := MustBuildModel(n, 3, rng)
		net.Window = 4

		var buf bytes.Buffer
		if err := net.Save(&buf); err != nil {
			t.Fatalf("model %d save: %v", n, err)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatalf("model %d load: %v", n, err)
		}
		if loaded.Window != 4 {
			t.Errorf("model %d window = %d, want 4", n, loaded.Window)
		}
		rows := [][]float64{{0.1, 0.2, 0.3}, {0.4, 0.5, 0.6}, {0.7, 0.8, 0.9}, {0.2, 0.4, 0.6}}
		if got, want := loaded.PredictOne(rows), net.PredictOne(rows); got != want {
			t.Errorf("model %d loaded prediction %v != original %v", n, got, want)
		}
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not a gob stream")); err == nil {
		t.Error("Load of garbage should error")
	}
}

func TestSGDStepDirection(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	net := NewNetwork(2).AddDense(1, Linear, rng)
	w := net.Params()[0]
	before := w.Clone()
	g := net.GradsRef()[0]
	g.Fill(1)
	(&SGD{LR: 0.1}).Step(net.Params(), net.GradsRef())
	for i := range w.Data {
		if got, want := w.Data[i], before.Data[i]-0.1; got != want {
			t.Errorf("param %d = %v, want %v", i, got, want)
		}
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize (w-3)^2 with Adam driving a single scalar parameter.
	rng := rand.New(rand.NewSource(62))
	net := NewNetwork(1).AddDense(1, Linear, rng)
	params := net.Params()
	grads := net.GradsRef()
	adam := NewAdam(0.1)
	w := params[0]
	for i := 0; i < 500; i++ {
		grads[0].Data[0] = 2 * (w.Data[0] - 3)
		grads[1].Data[0] = 0
		adam.Step(params, grads)
	}
	if d := w.Data[0] - 3; d > 0.01 || d < -0.01 {
		t.Errorf("Adam converged to %v, want 3", w.Data[0])
	}
}

func TestActivations(t *testing.T) {
	cases := []struct {
		act  Activation
		x    float64
		want float64
	}{
		{Linear, -2, -2},
		{ReLU, -2, 0},
		{ReLU, 2, 2},
		{Sigmoid, 0, 0.5},
		{Tanh, 0, 0},
	}
	for _, c := range cases {
		if got := c.act.Apply(c.x); got != c.want {
			t.Errorf("%v.Apply(%v) = %v, want %v", c.act, c.x, got, c.want)
		}
	}
	if got := Sigmoid.DerivFromOutput(0.5); got != 0.25 {
		t.Errorf("Sigmoid' at 0.5 = %v, want 0.25", got)
	}
	if got := Tanh.DerivFromOutput(0); got != 1 {
		t.Errorf("Tanh' at 0 = %v, want 1", got)
	}
	if got := ReLU.DerivFromOutput(0); got != 0 {
		t.Errorf("ReLU' at kink = %v, want 0", got)
	}
	if got := Linear.DerivFromOutput(123); got != 1 {
		t.Errorf("Linear' = %v, want 1", got)
	}
	if got := Activation(99).String(); got != "Activation(99)" {
		t.Errorf("unknown activation String = %q", got)
	}
}

func TestActivationUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Activation(99).Apply(1)
}
