package nn

import (
	"bytes"
	"encoding/gob"
	"math"
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

// snapshotBlob gob-encodes snap as Save would.
func snapshotBlob(t testing.TB, snap snapshot) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzNetworkLoad feeds arbitrary bytes to Load — what a checkpoint's
// EngineState.Net hands it. Load may refuse them but not panic, and may not
// size a layer by a width the blob's own weights do not back: a declared
// Dense width of -3 used to panic in mat.New, one of 1<<40 to exhaust
// memory. A network that loads is whole: it saves and reloads, and a dense
// one answers a forward pass.
func FuzzNetworkLoad(f *testing.F) {
	// Model 1 over one input feature: the deployed architecture, in a blob
	// small enough (2 KB, not 57) for the mutator to get through.
	valid := MustBuildModel(1, 1, rand.New(rand.NewSource(70))).snapshot()
	truncated := valid
	truncated.Params = append([][]float64(nil), valid.Params...)
	last := len(truncated.Params) - 1
	truncated.Params[last] = truncated.Params[last][:len(truncated.Params[last])/2]
	hostile := func(width int) snapshot {
		return snapshot{InSize: 6, Window: DefaultWindow, Layers: []LayerSpec{{Fixed: width, Kind: "Dense", Act: Linear}},
			Params: [][]float64{make([]float64, 6), {0}}}
	}
	// A window is read as it is declared: a negative one used to be taken
	// for DefaultWindow, a huge one to size every recurrent batch.
	window := func(w int) snapshot {
		snap := valid
		snap.Window = w
		return snap
	}
	for _, snap := range []snapshot{valid, truncated, hostile(-3), hostile(1 << 40), window(-1), window(0), window(1 << 40)} {
		f.Add(snapshotBlob(f, snap))
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		net, err := Load(bytes.NewReader(blob))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := net.Save(&buf); err != nil {
			t.Fatal(err)
		}
		again, err := Load(&buf)
		if err != nil {
			t.Fatalf("a loaded network does not reload: %v", err)
		}
		if again.ParamCount() != net.ParamCount() {
			t.Fatalf("reloaded network has %d parameters, the loaded one %d", again.ParamCount(), net.ParamCount())
		}
		if !net.IsRecurrent() {
			net.PredictOne([][]float64{make([]float64, net.InSize)})
		}
	})
}

// TestLoadRejectsHostileShapes pins the fuzz seeds' verdicts: every blob
// whose declared shape its weights do not back is an error, and the valid
// one loads.
func TestLoadRejectsHostileShapes(t *testing.T) {
	valid := MustBuildModel(1, 6, rand.New(rand.NewSource(70))).snapshot()
	if _, err := Load(bytes.NewReader(snapshotBlob(t, valid))); err != nil {
		t.Fatalf("valid model-1 blob: %v", err)
	}
	longest := valid
	longest.Window = MaxWindow
	net, err := Load(bytes.NewReader(snapshotBlob(t, longest)))
	if err != nil {
		t.Fatalf("model-1 blob at MaxWindow: %v", err)
	}
	if net.Window != MaxWindow {
		t.Fatalf("model-1 blob at MaxWindow loaded with window %d", net.Window)
	}
	cases := map[string]func(s *snapshot){
		"negative width":  func(s *snapshot) { s.Layers[0].Fixed = -3 },
		"huge width":      func(s *snapshot) { s.Layers[0].Fixed = 1 << 40 },
		"overflowing Z":   func(s *snapshot) { s.Layers[0].Fixed, s.Layers[0].UnitsZ = 0, math.MaxInt/3 },
		"zero input":      func(s *snapshot) { s.InSize = 0 },
		"short block":     func(s *snapshot) { s.Params[1] = s.Params[1][:3] },
		"missing block":   func(s *snapshot) { s.Params = s.Params[:len(s.Params)-1] },
		"extra block":     func(s *snapshot) { s.Params = append(s.Params, []float64{1}) },
		"unknown kind":    func(s *snapshot) { s.Layers[1].Kind = "Conv" },
		"late recurrence": func(s *snapshot) { s.Layers[1].Kind = "GRU" },
		"bad activation":  func(s *snapshot) { s.Layers[0].Act = 99 },
		"no layers":       func(s *snapshot) { s.Layers, s.Params, s.InSize = nil, nil, 1<<40 },
		"negative window": func(s *snapshot) { s.Window = -1 },
		"zero window":     func(s *snapshot) { s.Window = 0 },
		"huge window":     func(s *snapshot) { s.Window = MaxWindow + 1 },
	}
	for name, mutate := range cases {
		snap := valid
		snap.Layers = append([]LayerSpec(nil), valid.Layers...)
		snap.Params = append([][]float64(nil), valid.Params...)
		mutate(&snap)
		if _, err := Load(bytes.NewReader(snapshotBlob(t, snap))); err == nil {
			t.Errorf("%s: Load accepted it", name)
		}
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
