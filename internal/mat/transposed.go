package mat

import (
	"fmt"
	"unsafe"
)

// The two transposed products are what back-propagation runs on: aᵀ×b
// turns a layer's input and its dLoss/dZ into the weight gradient, a×bᵀ
// pushes dLoss/dZ back through the weights. Both have a write-into kernel
// (the training loop's form) and an allocating wrapper (the recurrent
// layers' form), and both fix the floating-point order of every output
// element — ascending k from the value the element started with — so a
// result never depends on which form, tile or row count produced it.

// MulTransA returns aᵀ×b without materializing the transpose.
func MulTransA(a, b *Matrix) *Matrix {
	out := New(a.Cols, b.Cols)
	AddMulTransATo(out, a, b)
	return out
}

// MulTransB returns a×bᵀ without materializing the transpose.
func MulTransB(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	MulTransBTo(out, a, b)
	return out
}

// overlaps reports whether the storage of x and y shares any element
// (whole buffers, or row views cut from one).
func overlaps(x, y *Matrix) bool {
	if len(x.Data) == 0 || len(y.Data) == 0 {
		return false
	}
	x0 := uintptr(unsafe.Pointer(&x.Data[0]))
	y0 := uintptr(unsafe.Pointer(&y.Data[0]))
	return x0 < y0+uintptr(len(y.Data))*8 && y0 < x0+uintptr(len(x.Data))*8
}

// transATile is how many rows of a (terms of one output element's sum) the
// aᵀ×b kernel and the column sum fold into dst per pass over it: a whole
// minibatch of the trainer's 32 rows, so each row of dW and dB is read and
// written once per step.
const transATile = 32

// AddMulTransATo accumulates dst += aᵀ×b. dst must be a.Cols×b.Cols and
// must not alias a or b.
//
// Element (i,j) becomes ((dst[i][j] + a[0][i]·b[0][j]) + a[1][i]·b[1][j]) + …
// in ascending row order, skipping every row k whose a[k][i] is exactly
// zero. The skip is part of the contract, not only a saving on
// ReLU-sparse activations: 0·±Inf is NaN, and a diverging model's
// gradient must stay ±Inf where its input was zero. Into a zeroed dst the
// result is bit-identical to dst += MulTransA(a, b): that product is the
// same chain started from a fresh +0, and adding it to the +0 already in
// dst changes nothing, because a chain that starts at +0 can never end on
// −0 (x + y is −0 only when both are) and 0 + x is x for every other x,
// NaN payloads included.
//
// On a CPU with AVX2 the zero test runs on vector compares and no term is
// copied (addMulTransAMasked); elsewhere the non-zero terms of a tile are
// compacted into lists, because the masked body's Go twins walk a mask per
// output element and run about 3.5× slower than the compaction in portable
// Go. The two bodies take the same terms in the same order with the same
// roundings, so they agree bit for bit.
func AddMulTransATo(dst, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("mat: MulTransA dimension mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: AddMulTransATo dst is %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
	if overlaps(dst, a) || overlaps(dst, b) {
		panic("mat: AddMulTransATo dst aliases an operand")
	}
	if useAVX2 {
		addMulTransAMasked(dst, a, b)
		return
	}
	m, n := a.Cols, b.Cols
	// The portable body, and the masked one's oracle. Up to transATile
	// rows of a at a time: for each output row i the
	// non-zero a[k][i] of the tile are compacted (value and the offset of
	// b's row k) and row i of dst takes their combination of b's rows in
	// one rowCombine, so dst is read and written once per tile instead of
	// once per row of a, and the zero test runs once per (k,i) rather than
	// inside the column loop. Each element's chain still runs in ascending
	// k from what dst held, so where the tiles fall changes no bit.
	var av [transATile]float64
	var off [transATile]int
	for k0 := 0; k0 < a.Rows; k0 += transATile {
		k1 := k0 + transATile
		if k1 > a.Rows {
			k1 = a.Rows
		}
		for i := 0; i < m; i++ {
			cnt := 0
			for k := k0; k < k1; k++ {
				// Stored first and kept only if non-zero: the count moves by
				// a conditional add, not a branch that ReLU's near-random
				// zeros would mispredict half the time.
				v := a.Data[k*m+i]
				av[cnt], off[cnt] = v, k*n
				if v != 0 {
					cnt++
				}
			}
			if cnt > 0 {
				rowCombine(dst.Data[i*n:(i+1)*n], b.Data, av[:cnt], off[:cnt], true)
			}
		}
	}
}

// maskCols is how many columns of a addMulTransAMasked takes the masks of
// at a time, so that they fit a fixed array on its stack at any width.
const maskCols = 64

// addMulTransAMasked is AddMulTransATo on the vector kernels. Per tile of
// up to transATile rows of a, nonzeroMasks gives each output row i the bit
// mask of the tile's rows k whose a[k][i] is not zero, and rowCombineMasks
// walks every row's set bits in ascending k, reading a[k][i] and b's row k
// where they lie through offset tables that serve every tile: nothing is
// copied, and dst is read and written once per tile, as before.
func addMulTransAMasked(dst, a, b *Matrix) {
	m, n := a.Cols, b.Cols
	var coff, boff [transATile]int
	for t := range coff {
		coff[t], boff[t] = t*m, t*n
	}
	var masks [maskCols]uint64
	for k0 := 0; k0 < a.Rows; k0 += transATile {
		rows := min(transATile, a.Rows-k0)
		at, bt := a.Data[k0*m:], b.Data[k0*n:]
		for i0 := 0; i0 < m; i0 += maskCols {
			cols := masks[:min(maskCols, m-i0)]
			nonzeroMasks(cols, at[i0:], m, rows)
			rowCombineMasks(dst.Data[i0*n:(i0+len(cols))*n], n, bt, at[i0:], coff[:rows], boff[:rows], cols)
		}
	}
}

// MulTransBTo computes dst = a×bᵀ, overwriting dst, which must be
// a.Rows×b.Rows and must not alias a or b.
//
// Element (i,j) is the dot product of row i of a and row j of b summed in
// ascending k from +0, with no zero skip — exactly the one-accumulator
// loop — but two rows of a meet four rows of b at a time, so eight
// independent sums are in flight instead of one and every loaded value is
// used two or four times.
func MulTransBTo(dst, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulTransB dimension mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MulTransBTo dst is %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	if overlaps(dst, a) || overlaps(dst, b) {
		panic("mat: MulTransBTo dst aliases an operand")
	}
	kdim, n := a.Cols, b.Rows
	i := 0
	for ; i+2 <= a.Rows; i += 2 {
		a0 := a.Data[i*kdim : (i+1)*kdim]
		a1 := a.Data[(i+1)*kdim : (i+2)*kdim]
		d0 := dst.Data[i*n : (i+1)*n]
		d1 := dst.Data[(i+1)*n : (i+2)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b.Data[j*kdim : (j+1)*kdim]
			b1 := b.Data[(j+1)*kdim : (j+2)*kdim]
			b2 := b.Data[(j+2)*kdim : (j+3)*kdim]
			b3 := b.Data[(j+3)*kdim : (j+4)*kdim]
			var s00, s01, s02, s03, s10, s11, s12, s13 float64
			for k, v0 := range a0 {
				v1 := a1[k]
				w0, w1, w2, w3 := b0[k], b1[k], b2[k], b3[k]
				s00 += v0 * w0
				s01 += v0 * w1
				s02 += v0 * w2
				s03 += v0 * w3
				s10 += v1 * w0
				s11 += v1 * w1
				s12 += v1 * w2
				s13 += v1 * w3
			}
			d0[j], d0[j+1], d0[j+2], d0[j+3] = s00, s01, s02, s03
			d1[j], d1[j+1], d1[j+2], d1[j+3] = s10, s11, s12, s13
		}
		for ; j < n; j++ {
			brow := b.Data[j*kdim : (j+1)*kdim]
			var s0, s1 float64
			for k, v0 := range a0 {
				s0 += v0 * brow[k]
				s1 += a1[k] * brow[k]
			}
			d0[j], d1[j] = s0, s1
		}
	}
	for ; i < a.Rows; i++ {
		arow := a.Data[i*kdim : (i+1)*kdim]
		drow := dst.Data[i*n : (i+1)*n]
		for j := range drow {
			brow := b.Data[j*kdim : (j+1)*kdim]
			var s float64
			for k, v := range arow {
				s += v * brow[k]
			}
			drow[j] = s
		}
	}
}
