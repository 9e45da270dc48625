package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The training step's elementwise kernels — the bias gradient's column sum,
// the SGD step and the ReLU derivative gate — each against the scalar loop
// it replaced, on both implementations, bit for bit.

// refAddSumRows is the bias gradient's loop before the column-sum kernel:
// row by row, dst[j] += v.
func refAddSumRows(dst []float64, m *Matrix) {
	for r := 0; r < m.Rows; r++ {
		for j, v := range m.Row(r) {
			dst[j] += v
		}
	}
}

// refAddScaled is AddScaled's loop before the row combination.
func refAddScaled(a []float64, s float64, b []float64) {
	for i, v := range b {
		a[i] += s * v
	}
}

// refReLUGrad is the dense backward's ReLU′ loop before the gate kernel:
// the derivative DerivFromOutput gives, multiplied in.
func refReLUGrad(grad, out []float64) []float64 {
	dst := make([]float64, len(out))
	for i, y := range out {
		var deriv float64
		if y > 0 {
			deriv = 1
		}
		dst[i] = grad[i] * deriv
	}
	return dst
}

// guarded returns a copy of v starting shift+1 values into a fresh buffer —
// so it starts at every alignment a view can have — between two guard
// values, and a check that both guards are intact.
func guarded(v []float64, shift int) ([]float64, func() bool) {
	const guard = 99.5
	buf := make([]float64, shift+1+len(v)+1)
	out := buf[shift+1 : shift+1+len(v)]
	copy(out, v)
	buf[shift], buf[len(buf)-1] = guard, guard
	return out, func() bool { return buf[shift] == guard && buf[len(buf)-1] == guard }
}

// rowOf wraps v as a 1×len(v) matrix.
func rowOf(v []float64) *Matrix { return &Matrix{Rows: 1, Cols: len(v), Data: v} }

// backwardWidths are every n mod 4 tail beside every block boundary of the
// assembly, then the paper model's layer widths.
var backwardWidths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 15, 16, 17, 24, 31, 32, 33, 48, 96, 100}

func TestAddSumRowsToMatchesScalarLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	// Row counts around the 32-row tile: a short last batch (25), one
	// tile, one row past it, and the tails of two and three tiles.
	rowCounts := []int{0, 1, 3, 25, 31, 32, 33, 57, 64, 70}
	shift := 0
	for _, rows := range rowCounts {
		for _, n := range backwardWidths {
			for _, fill := range fills {
				for _, seedFill := range []string{"zero", "normal", "specials"} {
					shift = (shift + 1) % 4
					what := fmt.Sprintf("%dx%d %s into %s dst shift=%d", rows, n, fill, seedFill, shift)
					m := viewOf(rng, rows, n, fill, (shift+1)%4)
					seed := make([]float64, n)
					if seedFill != "zero" {
						seed = filled(rng, 1, n, seedFill).Data
					}
					want := append([]float64(nil), seed...)
					refAddSumRows(want, m)
					onEachKernel(t, func(kernel string) {
						dst, intact := guarded(seed, shift)
						AddSumRowsTo(rowOf(dst), m)
						if !intact() {
							t.Fatalf("%s %s: wrote outside dst", kernel, what)
						}
						assertSameBits(t, kernel+" "+what, rowOf(dst), rowOf(want))
						if seedFill == "zero" {
							assertSameBits(t, kernel+" "+what+" SumRows", m.SumRows(), rowOf(want))
						}
					})
				}
			}
		}
	}
}

func TestAddScaledMatchesScalarLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	scales := []float64{-0.05, 0.5, 0, math.Copysign(0, -1), math.Inf(-1), math.NaN(), 3e200}
	shift := 0
	for _, n := range append(backwardWidths, 4608) { // 4 608: model 1's 96×48 weights
		for _, s := range scales {
			for _, fill := range fills {
				shift = (shift + 1) % 4
				what := fmt.Sprintf("n=%d s=%v %s shift=%d", n, s, fill, shift)
				a := filled(rng, 1, n, fill).Data
				b := viewOf(rng, 1, n, fill, (shift+2)%4).Data
				want := append([]float64(nil), a...)
				refAddScaled(want, s, b)
				onEachKernel(t, func(kernel string) {
					got, intact := guarded(a, shift)
					AddScaled(rowOf(got), s, rowOf(b))
					if !intact() {
						t.Fatalf("%s %s: wrote outside a", kernel, what)
					}
					assertSameBits(t, kernel+" "+what, rowOf(got), rowOf(want))
				})
			}
		}
	}
}

// checkReLUGrad runs the gate on both implementations, into a fresh
// guarded dst or in place over a copy of grad, against refReLUGrad.
func checkReLUGrad(t *testing.T, what string, rows int, grad, out []float64, inPlace bool, shift int) {
	t.Helper()
	want := refReLUGrad(grad, out)
	cols := 0
	if rows > 0 {
		cols = len(out) / rows
	}
	shape := func(v []float64) *Matrix { return &Matrix{Rows: rows, Cols: cols, Data: v} }
	onEachKernel(t, func(kernel string) {
		dirty := make([]float64, len(out))
		for i := range dirty {
			dirty[i] = -7.25 // must be overwritten
		}
		if inPlace {
			copy(dirty, grad)
		}
		dst, intact := guarded(dirty, shift)
		g := grad
		if inPlace {
			g = dst
		}
		ReLUGradTo(shape(dst), shape(g), shape(out))
		if !intact() {
			t.Fatalf("%s %s: wrote outside dst", kernel, what)
		}
		assertSameBits(t, kernel+" "+what, shape(dst), shape(want))
	})
}

func TestReLUGradToMatchesScalarLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	shift := 0
	for _, rows := range []int{1, 3, 25, 32} {
		for _, n := range backwardWidths[1:] {
			for _, fg := range fills {
				for _, fo := range fills {
					for _, inPlace := range []bool{false, true} {
						shift = (shift + 1) % 4
						what := fmt.Sprintf("%dx%d grad=%s out=%s in-place=%v shift=%d", rows, n, fg, fo, inPlace, shift)
						grad := viewOf(rng, rows, n, fg, shift).Data
						out := viewOf(rng, rows, n, fo, (shift+3)%4).Data
						checkReLUGrad(t, what, rows, grad, out, inPlace, shift)
					}
				}
			}
		}
	}
}

// The gate's edge values, each on every element of a 23-long row — a
// 16-element block, a 4-element block and a 3-element tail — so every
// body must produce them.
func TestReLUGradToKnownAnswers(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan, inf := math.NaN(), math.Inf(1)
	denormal := math.Float64frombits(1)
	cases := []struct {
		name            string
		grad, out, want float64 // want's sign bit counts: −0 is not +0
	}{
		{name: "active", grad: 2, out: 1, want: 2},
		{name: "denormal output is active", grad: 5, out: denormal, want: 5},
		{name: "+0 output", grad: 2, out: 0, want: 0},
		{name: "+0 output keeps grad's sign", grad: -2, out: 0, want: negZero},
		{name: "−0 output is not > 0", grad: 2, out: negZero, want: 0},
		{name: "negative output", grad: -3, out: -1, want: negZero},
		{name: "NaN output is not > 0", grad: 3, out: nan, want: 0},
		{name: "0·Inf", grad: inf, out: 0, want: nan},
		{name: "0·−Inf at a NaN output", grad: -inf, out: nan, want: nan},
		{name: "NaN grad, active", grad: nan, out: 1, want: nan},
		{name: "NaN grad, inactive", grad: nan, out: -1, want: nan},
		{name: "−Inf grad, active", grad: -inf, out: inf, want: -inf},
	}
	onEachKernel(t, func(kernel string) {
		for _, c := range cases {
			const n = 23
			grad, out, dst := make([]float64, n), make([]float64, n), make([]float64, n)
			for i := range grad {
				grad[i], out[i] = c.grad, c.out
			}
			ReLUGradTo(rowOf(dst), rowOf(grad), rowOf(out))
			for i, v := range dst {
				if math.Float64bits(v) != math.Float64bits(c.want) && !(math.IsNaN(v) && math.IsNaN(c.want)) {
					t.Errorf("%s %s: element %d = %v (%#x), want %v (%#x)", kernel, c.name, i,
						v, math.Float64bits(v), c.want, math.Float64bits(c.want))
				}
			}
		}
	})
}

// FuzzReLUGrad feeds the gate's bodies arbitrary bit patterns at arbitrary
// lengths and alignments, into a fresh dst or in place, like FuzzMulBias.
// The seed corpus is under testdata.
func FuzzReLUGrad(f *testing.F) {
	f.Add([]byte{}, uint8(0), false)
	f.Fuzz(func(t *testing.T, data []byte, n uint8, inPlace bool) {
		in := &fuzzInput{data: data}
		shift := int(in.next() % 4)
		grad, out := in.values(int(n)), in.values(int(n))
		checkReLUGrad(t, fmt.Sprintf("n=%d in-place=%v", n, inPlace), 1, grad, out, inPlace, shift)
	})
}

func TestBackwardKernelPanics(t *testing.T) {
	m := New(4, 3)
	cases := map[string]func(){
		"AddSumRowsTo dst rows":    func() { AddSumRowsTo(New(2, 3), m) },
		"AddSumRowsTo dst cols":    func() { AddSumRowsTo(New(1, 4), m) },
		"AddSumRowsTo dst views m": func() { AddSumRowsTo(&Matrix{Rows: 1, Cols: 3, Data: m.Data[9:12]}, m) },
		"AddScaled shape":          func() { AddScaled(New(3, 4), 1, m) },
		"ReLUGradTo grad shape":    func() { ReLUGradTo(New(4, 3), New(3, 4), m) },
		"ReLUGradTo out shape":     func() { ReLUGradTo(New(4, 3), m, New(4, 2)) },
	}
	for name, f := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		})
	}
}

// BenchmarkAddSumRowsTo is the paper model's widest bias gradient: a
// 32-row minibatch of 96 columns.
func BenchmarkAddSumRowsTo(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	m := randomMatrix(rng, 32, 96)
	dst := New(1, 96)
	benchEachKernel(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			AddSumRowsTo(dst, m)
		}
	})
}

// BenchmarkReLUGradTo is the same layer's ReLU′ over a minibatch.
func BenchmarkReLUGradTo(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	grad := randomMatrix(rng, 32, 96)
	out := filled(rng, 32, 96, "sparse")
	dst := New(32, 96)
	benchEachKernel(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ReLUGradTo(dst, grad, out)
		}
	})
}

// BenchmarkAddScaled is an SGD step over the same layer's 96×48 weights.
func BenchmarkAddScaled(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	w, g := randomMatrix(rng, 96, 48), randomMatrix(rng, 96, 48)
	benchEachKernel(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			AddScaled(w, -1e-9, g)
		}
	})
}
