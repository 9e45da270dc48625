package nn

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// roundTrip sends net through a checkpoint's two halves — its
// architecture through gob, its weights as the block AppendWeights writes —
// and builds the network back.
func roundTrip(t testing.TB, net *Network) (*Network, error) {
	st := net.State()
	var back State
	if err := gob.NewDecoder(bytes.NewReader(specBlob(t, st))).Decode(&back); err != nil {
		t.Fatal(err)
	}
	if err := back.SetWeights(st.AppendWeights(nil)); err != nil {
		return nil, err
	}
	return back.Network()
}

// specBlob gob-encodes the architecture half of st, as a checkpoint's head
// section carries it.
func specBlob(t testing.TB, st State) []byte {
	st.Params, st.Weights = nil, nil
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSaveLoadRoundTripDense(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	ds := synthDataset(rng, 100, 4)
	net := NewNetwork(4).AddDense(8, ReLU, rng).AddDense(1, Linear, rng)
	if _, err := net.Fit(ds, FitConfig{Epochs: 3, Optimizer: &SGD{LR: 0.05}, Rng: rng}); err != nil {
		t.Fatal(err)
	}
	if st := net.State(); st.WeightsLen() != 8*net.ParamCount() {
		t.Errorf("WeightsLen = %d, want %d", st.WeightsLen(), 8*net.ParamCount())
	}

	loaded, err := roundTrip(t, net)
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

		loaded, err := roundTrip(t, net)
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

// TestLoadGarbage: a weight block that is not whole float64 values, or an
// empty state, is refused.
func TestLoadGarbage(t *testing.T) {
	st := MustBuildModel(1, 6, rand.New(rand.NewSource(70))).State()
	if err := st.SetWeights([]byte("not a weight block")); err == nil {
		t.Error("SetWeights of garbage should error")
	}
	var empty State
	if _, err := empty.Network(); err == nil {
		t.Error("Network of an empty state should error")
	}
}

// FuzzNetworkLoad feeds arbitrary bytes to the two halves a checkpoint
// hands nn: a gob-encoded architecture and a weight block. SetWeights may
// refuse them but not panic, and allocates nothing sized by either,
// whatever widths the architecture declares: a declared
// Dense width of -3 used to panic in mat.New, one of 1<<40 to exhaust
// memory. A state SetWeights accepts builds a whole network: it writes the
// same block back, and a dense one answers a forward pass.
func FuzzNetworkLoad(f *testing.F) {
	// Model 1 over one input feature: the deployed architecture, in a blob
	// small enough (2 KB, not 57) for the mutator to get through.
	valid := MustBuildModel(1, 1, rand.New(rand.NewSource(70))).State()
	block := valid.AppendWeights(nil)
	hostile := func(width int) State {
		return State{InSize: 6, Window: DefaultWindow, Layers: []LayerSpec{{Fixed: width, Kind: "Dense", Act: Linear}}}
	}
	// A window is read as it is declared: a negative one used to be taken
	// for DefaultWindow, a huge one to size every recurrent batch.
	window := func(w int) State {
		st := valid
		st.Window = w
		return st
	}
	seeds := []struct {
		st    State
		block []byte
	}{
		{valid, block},
		{valid, block[:len(block)-8*3]}, // the weights the layers declare, cut short
		{hostile(-3), make([]byte, 8*7)},
		{hostile(1 << 40), make([]byte, 8*7)},
		{window(-1), block},
		{window(0), block},
		{window(1 << 40), block},
		{valid, append(block[:len(block):len(block)], make([]byte, 8*5)...)}, // and with five values too many
	}
	for _, s := range seeds {
		f.Add(specBlob(f, s.st), s.block)
	}
	f.Fuzz(func(t *testing.T, spec, block []byte) {
		var st State
		if gob.NewDecoder(bytes.NewReader(spec)).Decode(&st) != nil {
			return
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := st.SetWeights(block)
		runtime.ReadMemStats(&after)
		// Nothing sized by the block or the architecture: SetWeights keeps
		// the block it checked, and an error message is all it builds. The
		// allowance is for what the fuzzing engine's own goroutines
		// allocate meanwhile (5 KB seen); TestSetWeightsAllocatesNothing
		// holds an accepted block to none at all.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(16<<10); grew > limit {
			t.Fatalf("SetWeights allocated %d bytes for a %d-byte block (limit %d)", grew, len(block), limit)
		}
		if err != nil {
			return
		}
		net, err := st.Network()
		if err != nil {
			t.Fatalf("a state SetWeights accepted does not build: %v", err)
		}
		again := net.State()
		if !bytes.Equal(again.AppendWeights(nil), block) {
			t.Fatal("the built network writes another weight block")
		}
		if !net.IsRecurrent() {
			net.PredictOne([][]float64{make([]float64, net.InSize)})
		}
	})
}

// TestSetWeightsAllocatesNothing: accepting a weight block copies and
// decodes nothing; the restored network is what decodes it.
func TestSetWeightsAllocatesNothing(t *testing.T) {
	net := MustBuildModel(1, 6, rand.New(rand.NewSource(70)))
	st := net.State()
	block := st.AppendWeights(nil)
	if allocs := testing.AllocsPerRun(20, func() {
		if err := st.SetWeights(block); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("SetWeights of a %d-byte block allocates %v times", len(block), allocs)
	}
}

// TestLoadRejectsHostileShapes pins the fuzz seeds' verdicts: every state
// whose declared shape its weights do not back is an error — built from
// its parameter blocks, or from its weight block under the declared
// architecture — and the valid one loads.
func TestLoadRejectsHostileShapes(t *testing.T) {
	valid := MustBuildModel(1, 6, rand.New(rand.NewSource(70))).State()
	if _, err := valid.Network(); err != nil {
		t.Fatalf("valid model-1 state: %v", err)
	}
	longest := valid
	longest.Window = MaxWindow
	net, err := longest.Network()
	if err != nil {
		t.Fatalf("model-1 state at MaxWindow: %v", err)
	}
	if net.Window != MaxWindow {
		t.Fatalf("model-1 state at MaxWindow loaded with window %d", net.Window)
	}
	cases := map[string]func(s *State){
		"negative width":  func(s *State) { s.Layers[0].Fixed = -3 },
		"huge width":      func(s *State) { s.Layers[0].Fixed = 1 << 40 },
		"overflowing Z":   func(s *State) { s.Layers[0].Fixed, s.Layers[0].UnitsZ = 0, math.MaxInt/3 },
		"zero input":      func(s *State) { s.InSize = 0 },
		"short block":     func(s *State) { s.Params[1] = s.Params[1][:3] },
		"missing block":   func(s *State) { s.Params = s.Params[:len(s.Params)-1] },
		"extra block":     func(s *State) { s.Params = append(s.Params, []float64{1}) },
		"unknown kind":    func(s *State) { s.Layers[1].Kind = "Conv" },
		"late recurrence": func(s *State) { s.Layers[1].Kind = "GRU" },
		"bad activation":  func(s *State) { s.Layers[0].Act = 99 },
		"no layers":       func(s *State) { s.Layers, s.Params, s.InSize = nil, nil, 1<<40 },
		"negative window": func(s *State) { s.Window = -1 },
		"zero window":     func(s *State) { s.Window = 0 },
		"huge window":     func(s *State) { s.Window = MaxWindow + 1 },
	}
	for name, mutate := range cases {
		st := valid
		st.Layers = append([]LayerSpec(nil), valid.Layers...)
		st.Params = append([][]float64(nil), valid.Params...)
		mutate(&st)
		if _, err := st.Network(); err == nil {
			t.Errorf("%s: Network accepted it", name)
		}
		back := st
		if err := back.SetWeights(st.AppendWeights(nil)); err == nil {
			if _, err := back.Network(); err == nil {
				t.Errorf("%s: Network accepted it from its weight block", name)
			}
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
