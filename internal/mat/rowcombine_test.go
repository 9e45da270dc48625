package mat

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// onEachKernel runs f on the portable kernels and then, where this machine
// has them, on the assembly ones, naming which.
func onEachKernel(t *testing.T, f func(kernel string)) {
	t.Helper()
	have := useAVX2
	defer func() { useAVX2 = have }()
	useAVX2 = false
	f("portable")
	if have {
		useAVX2 = true
		f("avx2")
	}
}

// benchEachKernel is onEachKernel for benchmarks: one sub-benchmark per
// implementation, so the CI bench smoke runs the assembly too.
func benchEachKernel(b *testing.B, f func(b *testing.B)) {
	have := useAVX2
	defer func() { useAVX2 = have }()
	useAVX2 = false
	b.Run("portable", f)
	if have {
		useAVX2 = true
		b.Run("avx2", f)
	}
}

// checkRowCombine runs one combination on the assembly and on its portable
// twin and compares the two bit for bit. out is seed copied to shift+1
// values into a fresh buffer — so the row starts at every alignment a view
// can have — between two guard values neither implementation may touch.
func checkRowCombine(t *testing.T, what string, seed, b, coef []float64, off []int, accumulate bool, shift int) {
	t.Helper()
	if !useAVX2 {
		t.Skip("no assembly row combination on this machine")
	}
	defer func() { useAVX2 = true }()
	run := func(asm bool) []float64 {
		const guard = 99.5
		buf := make([]float64, shift+1+len(seed)+1)
		out := buf[shift+1 : shift+1+len(seed)]
		buf[shift], buf[len(buf)-1] = guard, guard
		copy(out, seed)
		useAVX2 = asm
		rowCombine(out, b, coef, off, accumulate)
		if buf[shift] != guard || buf[len(buf)-1] != guard {
			t.Fatalf("%s (assembly %v): wrote outside the output row", what, asm)
		}
		return out
	}
	want, got := run(false), run(true)
	assertSameBits(t, what+": assembly against portable", &Matrix{Rows: 1, Cols: len(got), Data: got}, &Matrix{Rows: 1, Cols: len(want), Data: want})
}

func TestRowCombineMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	// Every block boundary of the assembly, then the layer widths of
	// Z = 5 and Z = 13 beside Z = 6's 96/48/24.
	widths := []int{0, 1, 3, 4, 5, 8, 15, 16, 17, 24, 25, 31, 32, 33, 48, 96, 100, 80, 40, 20, 208, 104, 52}
	for _, n := range widths {
		for _, terms := range []int{0, 1, 7, 8, 96} {
			for _, fill := range fills {
				for _, accumulate := range []bool{false, true} {
					for shift := 0; shift < 4; shift++ {
						what := fmt.Sprintf("n=%d terms=%d %s accumulate=%v shift=%d", n, terms, fill, accumulate, shift)
						// b is a view too, and its rows start anywhere in it.
						b := filled(rng, 1, shift+(terms+3)*(n+5), fill).Data[shift:]
						off := make([]int, terms)
						for i := range off {
							off[i] = rng.Intn(len(b) - n + 1)
						}
						coef := filled(rng, 1, terms, fill).Data
						seed := filled(rng, 1, n, fill).Data
						checkRowCombine(t, what, seed, b, coef, off, accumulate, shift)
					}
				}
			}
		}
	}
}

// FuzzRowCombine feeds both implementations arbitrary bit patterns —
// denormals, every NaN, values whose products overflow — at arbitrary
// widths, term counts and row offsets. The seed corpus is under testdata.
func FuzzRowCombine(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0), false)
	f.Fuzz(func(t *testing.T, data []byte, n, terms uint8, accumulate bool) {
		in := &fuzzInput{data: data}
		shift := int(in.next() % 4)
		b := in.values(shift + 2*int(n) + int(terms) + 1)[shift:]
		off := make([]int, terms)
		for i := range off {
			off[i] = int(in.next() % uint64(len(b)-int(n)+1))
		}
		checkRowCombine(t, fmt.Sprintf("n=%d terms=%d accumulate=%v", n, terms, accumulate),
			in.values(int(n)), b, in.values(int(terms)), off, accumulate, shift)
	})
}

// fuzzInput turns a fuzzer's bytes into float64 bit patterns: the bytes
// read eight at a time, round and round (all zeros when there are none).
type fuzzInput struct {
	data []byte
	pos  int
}

func (in *fuzzInput) next() uint64 {
	var w [8]byte
	for i := range w {
		if len(in.data) > 0 {
			w[i] = in.data[in.pos%len(in.data)]
			in.pos++
		}
	}
	return binary.LittleEndian.Uint64(w[:])
}

func (in *fuzzInput) values(k int) []float64 {
	v := make([]float64, k)
	for i := range v {
		v[i] = math.Float64frombits(in.next())
	}
	return v
}

// A forward row's result must not depend on where the row sits: in which
// batch, at which position of it (inside a 4-row tile or in the tail), or
// on which side of a shard boundary. With non-finite weights that needs
// every term summed on every row — 0·±Inf is NaN — on both implementations,
// and the fused epilogue applied alike to tiled and tail rows. With finite
// weights and zero-heavy rows the tile kernel leaves out the terms a whole
// tile has zeros at, which must not move a bit either.
func TestMulToRowPositionInvariant(t *testing.T) {
	onEachKernel(t, func(kernel string) {
		// check fills the rows around row, and the bias, as fill. It
		// returns the skippableTerms of every batch it multiplied.
		check := func(what string, row, b *Matrix, fill string) int {
			skippable := 0
			place := func(rng *rand.Rand, rows, pos int) *Matrix {
				a := filled(rng, rows, row.Cols, fill)
				a.SetRow(pos, row.Data)
				skippable += skippableTerms(a)
				return a
			}
			rng := rand.New(rand.NewSource(25))
			bias := filled(rng, 1, b.Cols, fill).Data
			products := []struct {
				name string
				mul  func(dst, a *Matrix)
			}{
				{"MulTo", func(dst, a *Matrix) { MulTo(dst, a, b) }},
				{"MulBiasTo", func(dst, a *Matrix) { MulBiasTo(dst, a, b, bias, false) }},
				{"MulBiasTo rectified", func(dst, a *Matrix) { MulBiasTo(dst, a, b, bias, true) }},
			}
			for _, p := range products {
				want := New(1, b.Cols)
				p.mul(want, row)
				for _, rows := range []int{1, 3, 4, 5, 8, 9, 33} {
					for pos := 0; pos < rows; pos++ {
						got := New(rows, b.Cols)
						p.mul(got, place(rng, rows, pos))
						at := Matrix{Rows: 1, Cols: b.Cols, Data: got.Row(pos)}
						assertSameBits(t, fmt.Sprintf("%s %s %s: row %d of %d", kernel, p.name, what, pos, rows), &at, want)
					}
				}
			}
			want := New(1, b.Cols)
			MulTo(want, row, b)
			// 130 rows is the least ParallelMulTo cuts four ways; the cuts
			// move with the worker count, and with them which rows are tiled.
			const rows = 130
			for pos := 0; pos < rows; pos += 3 {
				a := place(rng, rows, pos)
				for workers := 1; workers <= 4; workers++ {
					got := New(rows, b.Cols)
					ParallelMulTo(got, a, b, workers)
					at := Matrix{Rows: 1, Cols: b.Cols, Data: got.Row(pos)}
					assertSameBits(t, fmt.Sprintf("%s %s: row %d of %d, %d workers", kernel, what, pos, rows, workers), &at, want)
				}
			}
			return skippable
		}

		// The smallest case: a zero coefficient against an infinite weight.
		inf := FromRows([][]float64{{math.Inf(1), 1}, {2, 3}})
		one := New(1, 2)
		MulTo(one, FromRows([][]float64{{0, 1}}), inf)
		if !math.IsNaN(one.Data[0]) || one.Data[1] != 3 {
			t.Fatalf("%s: {0, 1} · [[+Inf 1] [2 3]] = %v, want [NaN 3]", kernel, one.Data)
		}
		check("0·Inf", FromRows([][]float64{{0, 1}}), inf, "specials")

		rng := rand.New(rand.NewSource(24))
		for _, shape := range [][2]int{{6, 96}, {48, 24}, {24, 1}, {17, 7}} {
			check(fmt.Sprintf("%dx%d", shape[0], shape[1]),
				filled(rng, 1, shape[0], "specials"), filled(rng, shape[0], shape[1], "specials"), "specials")
		}

		// Finite weights and rows that are mostly ±0, so that whole tiles
		// share zeros and the kernel leaves their terms out.
		for _, shape := range [][2]int{{6, 96}, {96, 48}, {48, 24}, {17, 7}} {
			row, b := filled(rng, 1, shape[0], "zeros"), filled(rng, shape[0], shape[1], "normal")
			if !allFinite(b.Data) {
				t.Fatalf("%dx%d: the zero-heavy case's weights are not finite", shape[0], shape[1])
			}
			if check(fmt.Sprintf("%dx%d zero-heavy", shape[0], shape[1]), row, b, "zeros") == 0 {
				t.Fatalf("%dx%d: no batch of the zero-heavy case reaches the skip", shape[0], shape[1])
			}
		}
	})
}

// skippableTerms counts the (tile, k) pairs of a's whole 4-row tiles at
// which all four coefficients are ±0: the terms the tile kernel leaves out
// when the weights are finite.
func skippableTerms(a *Matrix) int {
	count := 0
	for i := 0; i+4 <= a.Rows; i += 4 {
		for k := 0; k < a.Cols; k++ {
			if a.At(i, k) == 0 && a.At(i+1, k) == 0 && a.At(i+2, k) == 0 && a.At(i+3, k) == 0 {
				count++
			}
		}
	}
	return count
}

// BenchmarkRowCombine is one row of the paper model's widest product: 96
// terms over 48 columns.
func BenchmarkRowCombine(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	w := randomMatrix(rng, 96, 48)
	coef := randomMatrix(rng, 1, 96).Data
	off := make([]int, 96)
	for k := range off {
		off[k] = k * 48
	}
	out := make([]float64, 48)
	benchEachKernel(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rowCombine(out, w.Data, coef, off, false)
		}
	})
}
