package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refMulTransA and refMulTransB are the loops MulTransA and MulTransB were
// before the write-into kernels: one product matrix built from +0, one
// serial accumulator per dot product. They are the oracle the kernels must
// match bit for bit.
func refMulTransA(a, b *Matrix) *Matrix {
	out := New(a.Cols, b.Cols)
	for k := 0; k < a.Rows; k++ {
		arow := a.Data[k*a.Cols : (k+1)*a.Cols]
		brow := b.Data[k*b.Cols : (k+1)*b.Cols]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.Data[i*out.Cols : (i+1)*out.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

func refMulTransB(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for j := 0; j < b.Rows; j++ {
			brow := b.Data[j*b.Cols : (j+1)*b.Cols]
			var sum float64
			for k, av := range arow {
				sum += av * brow[k]
			}
			orow[j] = sum
		}
	}
	return out
}

// special values the kernels must carry exactly: the zero skip (0 and −0
// in a), signed zeros in b, and the non-finite values of a diverging model.
var specials = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}

// fills name how a test matrix is populated.
var fills = []string{"normal", "sparse", "specials"}

func filled(rng *rand.Rand, rows, cols int, fill string) *Matrix {
	m := randomMatrix(rng, rows, cols)
	for i := range m.Data {
		switch fill {
		case "sparse": // a ReLU layer's output: about half exact zeros
			if rng.Intn(2) == 0 {
				m.Data[i] = 0
			}
		case "specials":
			if rng.Intn(3) == 0 {
				m.Data[i] = specials[rng.Intn(len(specials))]
			}
		case "zeros": // seven in eight ±0, so 4-row tiles share zero columns
			if rng.Intn(8) != 0 {
				m.Data[i] = math.Copysign(0, float64(rng.Intn(2))-0.5)
			}
		}
	}
	return m
}

// assertSameBits compares bit patterns, not values within a tolerance: −0
// is not +0 and a finite value is not its neighbour. The one freedom is
// which NaN a NaN is: when two NaNs with different payloads meet in an
// addition the hardware returns its first operand, and which operand the
// compiler puts first is not something Go source pins.
func assertSameBits(t *testing.T, what string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) && !(math.IsNaN(got.Data[i]) && math.IsNaN(want.Data[i])) {
			t.Fatalf("%s: element (%d,%d) = %v (%#x), want %v (%#x)", what, i/want.Cols, i%want.Cols,
				got.Data[i], math.Float64bits(got.Data[i]), want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

var (
	kernelRows = []int{1, 7, 8, 9, 32}
	kernelCols = []int{1, 6, 24, 25, 96}
	// transARows add heights past the 32-row tile that are not a multiple
	// of it: the recurrent layers' MulTransA takes any batch height.
	transARows = append(kernelRows, 31, 33, 70)
)

func TestAddMulTransAToMatchesReference(t *testing.T) {
	onEachKernel(t, func(kernel string) {
		rng := rand.New(rand.NewSource(21))
		for _, rows := range transARows {
			for _, m := range kernelCols {
				for _, n := range kernelCols {
					for _, fa := range fills {
						for _, fb := range fills {
							what := fmt.Sprintf("%s %dx%dᵀ·%dx%d a=%s b=%s", kernel, rows, m, rows, n, fa, fb)
							a, b := filled(rng, rows, m, fa), filled(rng, rows, n, fb)
							want := refMulTransA(a, b)
							assertSameBits(t, what+" wrapper", MulTransA(a, b), want)

							// Into a zeroed dst: the product itself, and what the
							// old dW += product pass left behind.
							dst := New(m, n)
							AddMulTransATo(dst, a, b)
							assertSameBits(t, what+" zeroed dst", dst, want)
							sum := New(m, n)
							AddInPlace(sum, want)
							assertSameBits(t, what+" vs 0 += product", dst, sum)

							// Into a non-zero dst the chain starts from what is
							// there, so the oracle is the reference loop seeded
							// with the same values.
							seed := filled(rng, m, n, fb)
							got := seed.Clone()
							AddMulTransATo(got, a, b)
							assertSameBits(t, what+" seeded dst", got, refAddMulTransA(seed, a, b))
						}
					}
				}
			}
		}
	})
}

// refAddMulTransA is refMulTransA started from seed instead of +0.
func refAddMulTransA(seed, a, b *Matrix) *Matrix {
	out := seed.Clone()
	for k := 0; k < a.Rows; k++ {
		for i := 0; i < a.Cols; i++ {
			av := a.Data[k*a.Cols+i]
			if av == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				out.Data[i*out.Cols+j] += av * b.Data[k*b.Cols+j]
			}
		}
	}
	return out
}

// mixed is values with about one in eight replaced by a special — ±0, ±Inf
// or NaN — which arbitrary bit patterns alone reach too rarely for the
// zero skip and 0·Inf to meet.
func (in *fuzzInput) mixed(k int) []float64 {
	v := in.values(k)
	for i, x := range v {
		if u := math.Float64bits(x); u%8 == 0 {
			v[i] = specials[(u/8)%uint64(len(specials))]
		}
	}
	return v
}

// FuzzAddMulTransA checks the weight gradient's vector body against its
// portable twin, and both against the reference loop, on bit patterns
// mixed with ±0, ±Inf and NaN in a, b and the seeded dst, at any height up
// to two tiles and a tail and at widths on and off the 4-column blocks.
// The seed corpus is under testdata.
func FuzzAddMulTransA(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, rows, m, n uint8) {
		in := &fuzzInput{data: data}
		r, mc, nc := int(rows%80), int(m%40), int(n%40)
		a := &Matrix{Rows: r, Cols: mc, Data: in.mixed(r * mc)}
		b := &Matrix{Rows: r, Cols: nc, Data: in.mixed(r * nc)}
		seed := &Matrix{Rows: mc, Cols: nc, Data: in.mixed(mc * nc)}
		what := fmt.Sprintf("%dx%dᵀ·%dx%d", r, mc, r, nc)
		want := refAddMulTransA(seed, a, b)
		var portable *Matrix
		onEachKernel(t, func(kernel string) {
			got := seed.Clone()
			AddMulTransATo(got, a, b)
			assertSameBits(t, what+" "+kernel+" against the reference loop", got, want)
			if portable == nil {
				portable = got
			} else {
				assertSameBits(t, what+" "+kernel+" against portable", got, portable)
			}
		})
	})
}

func TestMulTransBToMatchesReference(t *testing.T) {
	onEachKernel(t, func(kernel string) {
		rng := rand.New(rand.NewSource(22))
		for _, rows := range kernelRows {
			for _, n := range kernelCols { // rows of b = columns of the result
				for _, kdim := range kernelCols {
					for _, fa := range fills {
						for _, fb := range fills {
							what := fmt.Sprintf("%s %dx%d·(%dx%d)ᵀ a=%s b=%s", kernel, rows, kdim, n, kdim, fa, fb)
							a, b := filled(rng, rows, kdim, fa), filled(rng, n, kdim, fb)
							want := refMulTransB(a, b)
							assertSameBits(t, what+" wrapper", MulTransB(a, b), want)
							dst := New(rows, n)
							dst.Fill(99) // must be overwritten, not accumulated into
							MulTransBTo(dst, a, b)
							assertSameBits(t, what, dst, want)

							// The trainer's form: the forward product against
							// bᵀ packed beforehand is the same sums.
							bT := New(kdim, n)
							TransposeTo(bT, b)
							dst.Fill(99)
							MulTo(dst, a, bT)
							assertSameBits(t, what+" over packed bᵀ", dst, want)
						}
					}
				}
			}
		}
	})
}

// TestTransposeToMatchesLoop runs both transpose bodies over every shape
// around the 4×4 block, 1×n and n×1 included, from views at every
// alignment into a dirtied, guarded dst, against the element loop. Only
// bits move, so the comparison is exact, NaN payloads included.
func TestTransposeToMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	sizes := []int{1, 2, 3, 4, 5, 7, 8, 9, 13, 24, 48, 96}
	shift := 0
	for _, rows := range sizes {
		for _, cols := range sizes {
			shift = (shift + 1) % 4
			m := viewOf(rng, rows, cols, "specials", shift)
			m.Data[0] = math.Float64frombits(0x7ff8dead0000beef) // a NaN with a payload
			onEachKernel(t, func(kernel string) {
				dirty := make([]float64, rows*cols)
				for i := range dirty {
					dirty[i] = -7.25
				}
				d, intact := guarded(dirty, (shift+1)%4)
				TransposeTo(&Matrix{Rows: cols, Cols: rows, Data: d}, m)
				if !intact() {
					t.Fatalf("%s %dx%d: wrote outside dst", kernel, rows, cols)
				}
				for r := 0; r < rows; r++ {
					for c := 0; c < cols; c++ {
						if got, want := math.Float64bits(d[c*rows+r]), math.Float64bits(m.Data[r*cols+c]); got != want {
							t.Fatalf("%s %dx%d: dst(%d,%d) = %#x, want %#x", kernel, rows, cols, c, r, got, want)
						}
					}
				}
			})
		}
	}
}

func TestTransposedKernelPanics(t *testing.T) {
	a, b := New(4, 3), New(4, 5)
	w := New(6, 5)
	shared := New(4, 4)
	cases := map[string]func(){
		"AddMulTransATo row mismatch": func() { AddMulTransATo(New(3, 5), a, New(5, 5)) },
		"AddMulTransATo dst shape":    func() { AddMulTransATo(New(5, 3), a, b) },
		"AddMulTransATo dst is a":     func() { AddMulTransATo(shared, shared, shared.Clone()) },
		"AddMulTransATo dst is b":     func() { AddMulTransATo(shared, shared.Clone(), shared) },
		"AddMulTransATo dst views a": func() {
			AddMulTransATo(&Matrix{Rows: 2, Cols: 2, Data: shared.Data[4:8]}, &Matrix{Rows: 4, Cols: 2, Data: shared.Data[:8]}, New(4, 2))
		},
		"MulTransBTo inner mismatch": func() { MulTransBTo(New(4, 6), a, w) },
		"MulTransBTo dst shape":      func() { MulTransBTo(New(6, 4), b, w) },
		"MulTransBTo dst is a":       func() { MulTransBTo(shared, shared, shared.Clone()) },
		"MulTransBTo dst is b":       func() { MulTransBTo(shared, shared.Clone(), shared) },
		"MulTransA row mismatch":     func() { MulTransA(a, New(5, 5)) },
		"MulTransB inner mismatch":   func() { MulTransB(a, w) },
		"TransposeTo dst shape":      func() { TransposeTo(New(4, 3), a) },
		"TransposeTo dst is m":       func() { TransposeTo(shared, shared) },
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

// benchTransposed returns a benchmark of f over the paper model's 96→48
// layer at the given batch height.
func benchTransposed(rows int, f func(a, w, wT, g, dW, dX *Matrix)) func(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	a := filled(rng, rows, 96, "sparse") // a ReLU layer's activations
	w := randomMatrix(rng, 96, 48)
	wT := transpose(w)
	g := randomMatrix(rng, rows, 48)
	dW, dX := New(96, 48), New(rows, 96)
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f(a, w, wT, g, dW, dX)
		}
	}
}

func BenchmarkAddMulTransATo8(b *testing.B) {
	benchEachKernel(b, benchTransposed(8, func(a, _, _, g, dW, _ *Matrix) { AddMulTransATo(dW, a, g) }))
}
func BenchmarkAddMulTransATo32(b *testing.B) {
	benchEachKernel(b, benchTransposed(32, func(a, _, _, g, dW, _ *Matrix) { AddMulTransATo(dW, a, g) }))
}
func BenchmarkRefMulTransA8(b *testing.B) {
	benchTransposed(8, func(a, _, _, g, dW, _ *Matrix) { AddInPlace(dW, refMulTransA(a, g)) })(b)
}

// The dense backward's dX = dZ·Wᵀ: the forward product over Wᵀ packed
// beforehand, which is the form the assembly serves.
func BenchmarkMulPackedTransB8(b *testing.B) {
	benchEachKernel(b, benchTransposed(8, func(_, _, wT, g, _, dX *Matrix) { MulTo(dX, g, wT) }))
}
func BenchmarkMulPackedTransB32(b *testing.B) {
	benchEachKernel(b, benchTransposed(32, func(_, _, wT, g, _, dX *Matrix) { MulTo(dX, g, wT) }))
}

// MulTransBTo has one body on every platform.
func BenchmarkMulTransBTo8(b *testing.B) {
	benchTransposed(8, func(_, w, _, g, _, dX *Matrix) { MulTransBTo(dX, g, w) })(b)
}
func BenchmarkMulTransBTo32(b *testing.B) {
	benchTransposed(32, func(_, w, _, g, _, dX *Matrix) { MulTransBTo(dX, g, w) })(b)
}
func BenchmarkRefMulTransB8(b *testing.B) {
	benchTransposed(8, func(_, w, _, g, _, _ *Matrix) { refMulTransB(g, w) })(b)
}

// BenchmarkAddMulTransAToModel1 is one minibatch's weight gradients of
// model 1: 32 rows through its four layers, 6→96→48→24→1, with a
// ReLU-sparse left operand.
func BenchmarkAddMulTransAToModel1(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	widths := []int{6, 96, 48, 24, 1}
	var as, gs, dWs []*Matrix
	for l := 0; l+1 < len(widths); l++ {
		as = append(as, filled(rng, 32, widths[l], "sparse"))
		gs = append(gs, randomMatrix(rng, 32, widths[l+1]))
		dWs = append(dWs, New(widths[l], widths[l+1]))
	}
	benchEachKernel(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for l, a := range as {
				AddMulTransATo(dWs[l], a, gs[l])
			}
		}
	})
}

// BenchmarkTransposeTo is the trainer's per-minibatch pack of model 1's
// three transposed weights: 96×48, 48×24 and 24×1.
func BenchmarkTransposeTo(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	var ws, wTs []*Matrix
	for _, s := range [][2]int{{96, 48}, {48, 24}, {24, 1}} {
		ws = append(ws, randomMatrix(rng, s[0], s[1]))
		wTs = append(wTs, New(s[1], s[0]))
	}
	benchEachKernel(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for l, w := range ws {
				TransposeTo(wTs[l], w)
			}
		}
	})
}
