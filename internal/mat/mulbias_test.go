package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// relu is the `v < 0 → 0` pass MulBiasTo fuses when rectify is set.
func relu(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// checkMulBias runs one MulBiasTo on the portable kernels and, where this
// machine has it, on the assembly, and compares each bit for bit with the
// separate passes it fuses: MulTo, AddRowVector, then relu if rectify. dst
// is a view starting shift+1 values into a fresh, pre-dirtied buffer — so
// its rows start at every alignment a view can have — between two guard
// values no kernel may touch.
func checkMulBias(t *testing.T, what string, a, b *Matrix, bias []float64, rectify bool, shift int) {
	t.Helper()
	have := useAVX2
	defer func() { useAVX2 = have }()

	useAVX2 = false
	want := New(a.Rows, b.Cols)
	MulTo(want, a, b)
	want.AddRowVector(&Matrix{Rows: 1, Cols: len(bias), Data: bias})
	if rectify {
		want.ApplyInPlace(relu)
	}

	kernels := []bool{false}
	if have {
		kernels = append(kernels, true)
	}
	for _, asm := range kernels {
		const guard = 99.5
		size := a.Rows * b.Cols
		buf := make([]float64, shift+1+size+1)
		dst := &Matrix{Rows: a.Rows, Cols: b.Cols, Data: buf[shift+1 : shift+1+size]}
		dst.Fill(-7.25) // must be overwritten, not accumulated into
		buf[shift], buf[len(buf)-1] = guard, guard
		useAVX2 = asm
		MulBiasTo(dst, a, b, bias, rectify)
		if buf[shift] != guard || buf[len(buf)-1] != guard {
			t.Fatalf("%s (assembly %v): wrote outside dst", what, asm)
		}
		assertSameBits(t, fmt.Sprintf("%s (assembly %v): against the separate passes", what, asm), dst, want)
	}
}

// viewOf returns a rows×cols matrix filled as fill whose storage starts
// shift values into its buffer.
func viewOf(rng *rand.Rand, rows, cols int, fill string, shift int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: filled(rng, 1, shift+rows*cols, fill).Data[shift:]}
}

func TestMulBiasToMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	// Every row count up to two tiles and a tail, then 33; every block
	// boundary of the tile kernel, then the layer widths of Z = 5, 6 and 13.
	rowCounts := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 33}
	widths := []int{1, 3, 4, 5, 8, 12, 16, 24, 48, 96, 104, 208}
	shift := 0
	for _, rows := range rowCounts {
		for _, n := range widths {
			for _, kdim := range []int{0, 1, 6, 96} {
				for _, fill := range fills {
					for _, rectify := range []bool{false, true} {
						// Every alignment meets every shape across the inner
						// loops without multiplying the case count by four.
						shift = (shift + 1) % 4
						what := fmt.Sprintf("%dx%d·%dx%d %s rectify=%v shift=%d", rows, kdim, kdim, n, fill, rectify, shift)
						a := viewOf(rng, rows, kdim, fill, shift)
						b := viewOf(rng, kdim, n, fill, (shift+1)%4)
						bias := viewOf(rng, 1, n, fill, (shift+2)%4).Data
						checkMulBias(t, what, a, b, bias, rectify, shift)
					}
				}
			}
		}
	}

	// Tiles the term list must get right, each tiled and with a tail row,
	// on finite weights, where the tile kernel leaves terms out.
	negZero := math.Copysign(0, -1)
	tile := func(rows, kdim int, set func(a *Matrix)) *Matrix {
		a := New(rows, kdim)
		set(a)
		return a
	}
	cases := []struct {
		name string
		a    *Matrix
	}{
		{"all-zero tile", tile(5, 96, func(a *Matrix) {})},
		{"all −0 tile", tile(5, 13, func(a *Matrix) { a.Fill(negZero) })},
		// Only the kdim mod 4 columns hold anything: every whole block of
		// four is left out and the tail is not.
		{"tail columns only", tile(5, 7, func(a *Matrix) {
			for i := 0; i < 5; i++ {
				a.Set(i, 4+i%3, float64(i+1))
			}
		})},
		{"one row of the tile", tile(8, 9, func(a *Matrix) { a.SetRow(6, []float64{1, 0, 2, 0, 0, 3, 0, 0, 4}) })},
		{"−0 coefficients", tile(5, 6, func(a *Matrix) {
			a.Fill(negZero)
			a.Set(1, 2, -2.5)
			a.Set(4, 0, 1)
		})},
		// NaN is not zero: its term is walked and the column is NaN.
		{"NaN coefficient", tile(5, 10, func(a *Matrix) { a.Set(2, 7, math.NaN()) })},
		{"NaN in the tail columns", tile(4, 6, func(a *Matrix) { a.Set(3, 5, math.NaN()) })},
		{"no inner dimension", tile(9, 0, func(a *Matrix) {})},
		// Wider than the term list the stack holds.
		{"kdim above the stack list", tile(9, 300, func(a *Matrix) {
			for i := range a.Data {
				if rng.Intn(3) == 0 {
					a.Data[i] = rng.NormFloat64()
				}
			}
		})},
	}
	for _, c := range cases {
		for _, n := range []int{4, 13, 48} {
			b := filled(rng, c.a.Cols, n, "normal")
			bias := filled(rng, 1, n, "normal").Data
			for _, rectify := range []bool{false, true} {
				checkMulBias(t, fmt.Sprintf("%s %dx%d·%dx%d rectify=%v", c.name, c.a.Rows, c.a.Cols, c.a.Cols, n, rectify),
					c.a, b, bias, rectify, n%4)
			}
		}
	}
}

// The epilogue's edge values, each on every element of a 5×5 product —
// four tiled rows and a tail row, four assembly columns and a portable
// one — so every body must produce them.
func TestMulBiasToKnownAnswers(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name       string
		a, b       [2]float64 // one row of a, one column of b
		bias       float64
		rectify    bool
		want       float64
		wantNegBit bool // want is −0, not +0
	}{
		// The sum starts at +0, and +0 + −0 is +0: a chain begun from the
		// bias, or a bias folded in before the products, would end on −0.
		{name: "−0 products + (+0) bias", a: [2]float64{-1, 1}, b: [2]float64{0, negZero}, bias: 0, want: 0},
		{name: "−0 products + (−0) bias", a: [2]float64{-1, 1}, b: [2]float64{0, negZero}, bias: negZero, want: 0},
		{name: "−0 products with ReLU", a: [2]float64{-1, 1}, b: [2]float64{0, negZero}, bias: negZero, rectify: true, want: 0},
		{name: "NaN bias", a: [2]float64{1, 2}, b: [2]float64{3, 4}, bias: nan, want: nan},
		// VMAXPD would turn these NaNs into 0.
		{name: "NaN bias with ReLU", a: [2]float64{1, 2}, b: [2]float64{3, 4}, bias: nan, rectify: true, want: nan},
		{name: "0·Inf", a: [2]float64{0, 1}, b: [2]float64{inf, 3}, bias: 1, want: nan},
		{name: "0·Inf with ReLU", a: [2]float64{0, 1}, b: [2]float64{inf, 3}, bias: 1, rectify: true, want: nan},
		{name: "negative", a: [2]float64{1, 1}, b: [2]float64{-3, 1}, bias: 0.5, want: -1.5},
		{name: "negative with ReLU", a: [2]float64{1, 1}, b: [2]float64{-3, 1}, bias: 0.5, rectify: true, want: 0},
		{name: "positive with ReLU", a: [2]float64{1, 1}, b: [2]float64{3, 1}, bias: -1.5, rectify: true, want: 2.5},
		{name: "−Inf with ReLU", a: [2]float64{1, 1}, b: [2]float64{-inf, 1}, bias: 0, rectify: true, want: 0},
	}
	onEachKernel(t, func(kernel string) {
		for _, c := range cases {
			const rows, n = 5, 5
			a, b := New(rows, 2), New(2, n)
			for i := 0; i < rows; i++ {
				a.SetRow(i, c.a[:])
			}
			for j := 0; j < n; j++ {
				b.Set(0, j, c.b[0])
				b.Set(1, j, c.b[1])
			}
			bias := make([]float64, n)
			for j := range bias {
				bias[j] = c.bias
			}
			dst := New(rows, n)
			MulBiasTo(dst, a, b, bias, c.rectify)
			for i, v := range dst.Data {
				ok := math.Float64bits(v) == math.Float64bits(c.want) || (math.IsNaN(v) && math.IsNaN(c.want))
				if !ok {
					t.Errorf("%s %s: element (%d,%d) = %v (%#x), want %v (%#x)", kernel, c.name, i/n, i%n,
						v, math.Float64bits(v), c.want, math.Float64bits(c.want))
				}
			}
		}
	})
}

// FuzzMulBias feeds MulBiasTo's bodies arbitrary bit patterns at arbitrary
// shapes, views and epilogues, like FuzzRowCombine. Arbitrary bits are
// almost never exactly ±0, so the selector byte sets zeros into a for the
// tile kernel to leave out: its low two bits turn about half of a's
// values into ±0 (1), zero whole columns of each 4-row tile (2), or both
// (3); bits 2–3 put +Inf (1), −Inf (2) or NaN (3) on one weight, where
// every term must be summed again. Selector 0 is the plain bit patterns.
// The seed corpus is under testdata.
func FuzzMulBias(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0), uint8(0), false, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, rows, n, kdim uint8, rectify bool, zeros uint8) {
		in := &fuzzInput{data: data}
		shift := int(in.next() % 4)
		r, k, w := int(rows%13), int(kdim), int(n) // up to three tiles and a tail
		a := &Matrix{Rows: r, Cols: k, Data: in.values(shift + r*k)[shift:]}
		b := &Matrix{Rows: k, Cols: w, Data: in.values(shift + k*w)[shift:]}
		bias := in.values(shift + w)[shift:]
		zero := func() float64 { return math.Copysign(0, float64(int64(in.next()))) }
		if zeros&1 != 0 {
			for i := range a.Data {
				if in.next()%2 == 0 {
					a.Data[i] = zero()
				}
			}
		}
		if zeros&2 != 0 {
			for i := 0; i+4 <= r; i += 4 {
				for c := 0; c < k; c++ {
					if in.next()%2 == 0 {
						for row := i; row < i+4; row++ {
							a.Data[row*k+c] = zero()
						}
					}
				}
			}
		}
		if poison := (zeros >> 2) & 3; poison != 0 && len(b.Data) > 0 {
			b.Data[in.next()%uint64(len(b.Data))] = []float64{math.Inf(1), math.Inf(-1), math.NaN()}[poison-1]
		}
		checkMulBias(t, fmt.Sprintf("%dx%d·%dx%d rectify=%v zeros=%#x", r, k, k, w, rectify, zeros), a, b, bias, rectify, shift)
	})
}

func TestMulToRejectsAliasing(t *testing.T) {
	products := map[string]func(dst, a, b *Matrix){
		"MulTo":         MulTo,
		"ParallelMulTo": func(dst, a, b *Matrix) { ParallelMulTo(dst, a, b, 2) },
		"MulBiasTo":     func(dst, a, b *Matrix) { MulBiasTo(dst, a, b, make([]float64, b.Cols), true) },
	}
	for name, mul := range products {
		shared := New(4, 4)
		rowsOf := func(lo, hi, rows, cols int) *Matrix {
			return &Matrix{Rows: rows, Cols: cols, Data: shared.Data[lo:hi]}
		}
		cases := map[string]func(){
			"dst is a":    func() { mul(shared, shared, shared.Clone()) },
			"dst is b":    func() { mul(shared, shared.Clone(), shared) },
			"dst views a": func() { mul(rowsOf(6, 10, 2, 2), rowsOf(0, 8, 2, 4), New(4, 2)) },
			"dst views b": func() { mul(rowsOf(14, 16, 1, 2), New(1, 4), rowsOf(8, 16, 4, 2)) },
		}
		for what, f := range cases {
			t.Run(name+" "+what, func(t *testing.T) {
				defer func() {
					if recover() == nil {
						t.Error("expected panic")
					}
				}()
				f()
			})
		}
		// Disjoint views of one buffer are not aliases.
		mul(rowsOf(0, 4, 2, 2), rowsOf(4, 12, 2, 4), New(4, 2))
	}
}

// BenchmarkMulBiasTo is a scoring block through the paper model's widest
// product with its ReLU epilogue: 256 rows, 96 → 48. Two inputs: dense,
// normal rows with no zero in them, where every tile walks every term; and
// scoring, what that product meets in a decision — model 1's 6 → 96 ReLU
// output over candidate rows grouped by file, four rows per file that
// differ only in the device column (feature 5), so a tile's zeros mostly
// coincide.
func BenchmarkMulBiasTo(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	x := randomMatrix(rng, 256, 96)
	w := randomMatrix(rng, 96, 48)
	bias := randomMatrix(rng, 1, 48).Data
	dst := New(256, 48)
	inputs := []struct {
		name string
		x    *Matrix
	}{
		{"dense", x},
		{"scoring", scoringRows(rng, 256)},
	}
	for _, in := range inputs {
		b.Run(in.name, func(b *testing.B) {
			benchEachKernel(b, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					MulBiasTo(dst, in.x, w, bias, true)
				}
			})
		})
	}
}

// scoringRows is model 1's first hidden layer (6 → 96, ReLU, Xavier
// weights, zero bias) over rows of features in [0, 1) for rows/4 files,
// each file's four candidate rows the same but for feature 5.
func scoringRows(rng *rand.Rand, rows int) *Matrix {
	x := New(rows, 6)
	for i := 0; i < rows; i += 4 {
		for k := 0; k < 5; k++ {
			v := rng.Float64()
			for r := i; r < i+4; r++ {
				x.Set(r, k, v)
			}
		}
		for r := i; r < i+4; r++ {
			x.Set(r, 5, rng.Float64())
		}
	}
	w := New(6, 96)
	w.XavierInit(rng, 6, 96)
	h := New(rows, 96)
	MulBiasTo(h, x, w, make([]float64, 96), true)
	return h
}
