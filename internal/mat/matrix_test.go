package mat

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// randomize fills m with uniform values in [-1, 1) drawn from rng.
func randomize(m *Matrix, rng *rand.Rand) {
	for i := range m.Data {
		m.Data[i] = rng.Float64()*2 - 1
	}
}

// transpose returns mᵀ as a new matrix.
func transpose(m *Matrix) *Matrix {
	out := New(m.Cols, m.Rows)
	TransposeTo(out, m)
	return out
}

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 {
		t.Fatalf("shape = %dx%d, want 3x4", m.Rows, m.Cols)
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("Data[%d] = %v, want 0", i, v)
		}
	}
}

func TestFromSliceAndAt(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if got := m.At(0, 0); got != 1 {
		t.Errorf("At(0,0) = %v, want 1", got)
	}
	if got := m.At(1, 2); got != 6 {
		t.Errorf("At(1,2) = %v, want 6", got)
	}
	m.Set(1, 0, -7)
	if got := m.At(1, 0); got != -7 {
		t.Errorf("after Set, At(1,0) = %v, want -7", got)
	}
}

func TestFromSliceWrongLenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong data length")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("shape = %dx%d, want 3x2", m.Rows, m.Cols)
	}
	if m.At(2, 1) != 6 {
		t.Errorf("At(2,1) = %v, want 6", m.At(2, 1))
	}
	empty := FromRows(nil)
	if empty.Rows != 0 || empty.Cols != 0 {
		t.Errorf("FromRows(nil) shape = %dx%d, want 0x0", empty.Rows, empty.Cols)
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestCloneIsDeep(t *testing.T) {
	a := FromSlice(1, 2, []float64{1, 2})
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestMulKnownValues(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := Mul(a, b)
	want := FromSlice(2, 2, []float64{58, 64, 139, 154})
	if !Equal(got, want, 1e-12) {
		t.Errorf("Mul = %v, want %v", got, want)
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(4, 4)
	randomize(a, rng)
	id := New(4, 4)
	for i := 0; i < 4; i++ {
		id.Set(i, i, 1)
	}
	if got := Mul(a, id); !Equal(got, a, 1e-12) {
		t.Error("A·I != A")
	}
	if got := Mul(id, a); !Equal(got, a, 1e-12) {
		t.Error("I·A != A")
	}
}

func TestMulDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Mul(New(2, 3), New(2, 3))
}

func TestMulTransAMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := New(5, 3)
	b := New(5, 4)
	randomize(a, rng)
	randomize(b, rng)
	got := MulTransA(a, b)
	want := Mul(transpose(a), b)
	if !Equal(got, want, 1e-12) {
		t.Error("MulTransA != Aᵀ·B")
	}
}

func TestMulTransBMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := New(5, 3)
	b := New(4, 3)
	randomize(a, rng)
	randomize(b, rng)
	got := MulTransB(a, b)
	want := Mul(a, transpose(b))
	if !Equal(got, want, 1e-12) {
		t.Error("MulTransB != A·Bᵀ")
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := New(3, 7)
	randomize(a, rng)
	if !Equal(transpose(transpose(a)), a, 0) {
		t.Error("(Aᵀ)ᵀ != A")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := FromSlice(2, 2, []float64{10, 20, 30, 40})

	if got, want := Hadamard(a, b), FromSlice(2, 2, []float64{10, 40, 90, 160}); !Equal(got, want, 0) {
		t.Errorf("Hadamard = %v, want %v", got, want)
	}
	c := a.Clone()
	AddInPlace(c, b)
	if want := FromSlice(2, 2, []float64{11, 22, 33, 44}); !Equal(c, want, 0) {
		t.Errorf("AddInPlace = %v, want %v", c, want)
	}
	e := a.Clone()
	AddScaled(e, 0.5, b)
	if got, want := e, FromSlice(2, 2, []float64{6, 12, 18, 24}); !Equal(got, want, 1e-12) {
		t.Errorf("AddScaled = %v, want %v", got, want)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	AddInPlace(New(2, 2), New(2, 3))
}

func TestApply(t *testing.T) {
	a := FromSlice(1, 3, []float64{-1, 0, 2})
	relu := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		return v
	}
	if got, want := a.Apply(relu), FromSlice(1, 3, []float64{0, 0, 2}); !Equal(got, want, 0) {
		t.Errorf("Apply = %v, want %v", got, want)
	}
	a.ApplyInPlace(relu)
	if a.At(0, 0) != 0 {
		t.Error("ApplyInPlace did not modify receiver")
	}
}

func TestAddRowVectorAndSumRows(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	v := FromSlice(1, 3, []float64{10, 20, 30})
	m.AddRowVector(v)
	want := FromSlice(2, 3, []float64{11, 22, 33, 14, 25, 36})
	if !Equal(m, want, 0) {
		t.Errorf("AddRowVector = %v, want %v", m, want)
	}
	sums := want.SumRows()
	wantSums := FromSlice(1, 3, []float64{25, 47, 69})
	if !Equal(sums, wantSums, 1e-12) {
		t.Errorf("SumRows = %v, want %v", sums, wantSums)
	}
}

func TestRowAliasesStorage(t *testing.T) {
	m := FromSlice(2, 2, []float64{1, 2, 3, 4})
	row := m.Row(1)
	row[0] = 99
	if m.At(1, 0) != 99 {
		t.Error("Row should alias underlying storage")
	}
	m.SetRow(0, []float64{7, 8})
	if m.At(0, 1) != 8 {
		t.Error("SetRow did not write")
	}
}

func TestXavierInitBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := New(20, 30)
	m.XavierInit(rng, 20, 30)
	limit := math.Sqrt(6.0 / 50.0)
	for i, v := range m.Data {
		if math.Abs(v) > limit {
			t.Fatalf("Data[%d] = %v exceeds Xavier limit %v", i, v, limit)
		}
	}
	if !slices.ContainsFunc(m.Data, func(v float64) bool { return v != 0 }) {
		t.Error("XavierInit left matrix all zeros")
	}
}

// Property: matrix multiplication distributes over addition,
// A·(B+C) == A·B + A·C.
func TestMulDistributesOverAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, m, p := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a, b, c := New(n, m), New(m, p), New(m, p)
		randomize(a, r)
		randomize(b, r)
		randomize(c, r)
		right := Mul(a, b)
		AddInPlace(right, Mul(a, c))
		AddInPlace(b, c)
		return Equal(Mul(a, b), right, 1e-9)
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ.
func TestMulTransposeIdentity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, m, p := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a, b := New(n, m), New(m, p)
		randomize(a, r)
		randomize(b, r)
		left := transpose(Mul(a, b))
		right := Mul(transpose(b), transpose(a))
		return Equal(left, right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEqualShapes(t *testing.T) {
	if Equal(New(1, 2), New(2, 1), 1) {
		t.Error("Equal should reject different shapes")
	}
}

func TestStringFormat(t *testing.T) {
	m := FromSlice(2, 2, []float64{1, 2, 3, 4})
	if got := m.String(); got != "2x2[1 2; 3 4]" {
		t.Errorf("String = %q", got)
	}
}

func BenchmarkMul96x48(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	x := New(32, 96)
	w := New(96, 48)
	randomize(x, rng)
	randomize(w, rng)
	dst := New(32, 48)
	benchEachKernel(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MulTo(dst, x, w)
		}
	})
}
