package mat

import (
	"math"
	"math/bits"
	"unsafe"
)

// useAVX2 selects the assembly kernels of this package. It is set
// once, at package init, from what the platform is (rowcombine_amd64.go); a
// variable only so that tests can run both implementations in one process.
var useAVX2 bool

// rowCombine is the one primitive under the forward product, the gradient
// product, the bias gradient's column sum (every coef 1) and the SGD step
// (one term): out[j] (= | +=) Σₜ coef[t]·b[off[t]+j] for every j, the
// sum taken in ascending t from +0 (accumulate false) or from what out[j]
// held (accumulate true), each product rounded before it is added. Every
// off[t]+len(out) must be within b: the callers build the offsets from
// matrix shapes they have checked, and the assembly does not check again.
//
// On a CPU with AVX2 whole blocks of four columns go through
// rowCombineAVX2, where one vector lane is one output element summing its
// own products in the same order with the same two roundings, so the two
// implementations agree bit for bit (up to which NaN a NaN is).
func rowCombine(out, b, coef []float64, off []int, accumulate bool) {
	j := 0
	if useAVX2 && len(out) >= 4 {
		_ = off[:len(coef)]
		rowCombineAVX2(unsafe.SliceData(out), len(out), unsafe.SliceData(b), unsafe.SliceData(coef), unsafe.SliceData(off), len(coef), accumulate)
		j = len(out) &^ 3
	}
	if j < len(out) {
		rowCombineGo(out, b, coef, off, accumulate, j)
	}
}

// rowCombineGo is rowCombine's portable body, over columns [j, len(out)):
// eight output columns at a time are carried in registers across all terms,
// so out is read and written once however many terms there are. Eight is
// what pays: with four columns in flight the block is no faster than the
// plain term-at-a-time loop.
func rowCombineGo(out, b, coef []float64, off []int, accumulate bool, j int) {
	n := len(out)
	off = off[:len(coef)]
	for ; j+8 <= n; j += 8 {
		o := out[j : j+8 : j+8]
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		if accumulate {
			s0, s1, s2, s3, s4, s5, s6, s7 = o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7]
		}
		for t, v := range coef {
			bo := off[t] + j
			bb := b[bo : bo+8 : bo+8]
			s0 += v * bb[0]
			s1 += v * bb[1]
			s2 += v * bb[2]
			s3 += v * bb[3]
			s4 += v * bb[4]
			s5 += v * bb[5]
			s6 += v * bb[6]
			s7 += v * bb[7]
		}
		o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = s0, s1, s2, s3, s4, s5, s6, s7
	}
	for ; j < n; j++ {
		var s float64
		if accumulate {
			s = out[j]
		}
		for t, v := range coef {
			s += v * b[off[t]+j]
		}
		out[j] = s
	}
}

// rowCombineMasks is rowCombine's accumulate form over consecutive rows,
// each with the terms its own bit mask picks. For every row r of out —
// len(masks) rows of n, one after another — and every j,
// out[r][j] += Σₜ coef[r+coff[t]]·b[boff[t]+j] over the set bits t of
// masks[r] in ascending order, each product rounded before it is added.
// Coefficients and rows are read where they lie: coef steps one element
// per row, as a row-major matrix's columns do when coff holds its row
// offsets, so a caller that picks terms by testing them copies nothing.
// Every set bit must index coff and boff, and every coefficient and row be
// within coef and b: the callers build these from shapes they have
// checked, and the assembly does not check again.
//
// On a CPU with AVX2 the whole blocks of four columns of every row go
// through rowCombineMasksAVX2 in one call, the rest through the loop
// below; both sum each element's terms in the same order with the same
// two roundings.
func rowCombineMasks(out []float64, n int, b, coef []float64, coff, boff []int, masks []uint64) {
	j0 := 0
	if useAVX2 && n >= 4 && len(masks) > 0 {
		_ = out[len(masks)*n-1]
		rowCombineMasksAVX2(unsafe.SliceData(out), n, unsafe.SliceData(b), unsafe.SliceData(boff),
			unsafe.SliceData(coef), unsafe.SliceData(coff), unsafe.SliceData(masks), len(masks))
		j0 = n &^ 3
	}
	for r, mask := range masks {
		row := out[r*n : (r+1)*n]
		for j := j0; j < n; j++ {
			s := row[j]
			for m := mask; m != 0; m &= m - 1 {
				t := bits.TrailingZeros64(m)
				s += coef[r+coff[t]] * b[boff[t]+j]
			}
			row[j] = s
		}
	}
}

// nonzeroMasks sets masks[c], for each column c < len(masks) of a tile of
// rows rows of a (row stride `stride` elements), to the bit mask of the
// column's non-zero elements: bit t is set when a[t·stride+c] != 0, so −0
// is not and NaN is. rows must be in [1, 64] and masks not empty. Whole
// blocks of four columns go through nonzeroMasksAVX2 on a CPU with AVX2 —
// VCMPPD NEQ_UQ, the same test — the rest through the loop below.
func nonzeroMasks(masks []uint64, a []float64, stride, rows int) {
	_ = a[(rows-1)*stride+len(masks)-1]
	c := 0
	if useAVX2 && len(masks) >= 4 {
		nonzeroMasksAVX2(unsafe.SliceData(masks), unsafe.SliceData(a), stride, rows, len(masks)/4)
		c = len(masks) &^ 3
	}
	for ; c < len(masks); c++ {
		var mask uint64
		for t := rows - 1; t >= 0; t-- {
			mask <<= 1
			if a[t*stride+c] != 0 {
				mask |= 1
			}
		}
		masks[c] = mask
	}
}

// allFinite reports whether no value of x is ±Inf or NaN. Whole blocks of
// four go through allFiniteAVX2 on a CPU with AVX2, the rest through the
// loop below.
func allFinite(x []float64) bool {
	i := 0
	if useAVX2 && len(x) >= 4 {
		if !allFiniteAVX2(unsafe.SliceData(x), len(x)) {
			return false
		}
		i = len(x) &^ 3
	}
	for _, v := range x[i:] {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return false
		}
	}
	return true
}

// reluGrad is the ReLU derivative gate, dst[i] = grad[i] · (out[i] > 0 ?
// 1 : 0), over three slices of one length. Whole blocks of four go through
// reluGradAVX2 on a CPU with AVX2, the rest through reluGradGo; both take
// the same ordered compare and the same one product, so they agree bit for
// bit (up to which NaN a NaN is).
func reluGrad(dst, grad, out []float64) {
	i := 0
	if useAVX2 && len(dst) >= 4 {
		_, _ = grad[len(dst)-1], out[len(dst)-1]
		reluGradAVX2(unsafe.SliceData(dst), unsafe.SliceData(grad), unsafe.SliceData(out), len(dst))
		i = len(dst) &^ 3
	}
	if i < len(dst) {
		reluGradGo(dst[i:], grad[i:], out[i:])
	}
}

// oneBits is the bit pattern of 1.0.
const oneBits = 0x3FF0000000000000

// reluGradGo is reluGrad's portable body. The derivative is selected on
// its bit pattern, so the compiler emits a conditional move — activation
// signs are close to random — and the product is still taken: 0·grad keeps
// grad's sign on the zero and turns ±Inf into NaN.
func reluGradGo(dst, grad, out []float64) {
	grad, out = grad[:len(dst)], out[:len(dst)]
	for i, y := range out {
		var deriv uint64
		if y > 0 {
			deriv = oneBits
		}
		dst[i] = grad[i] * math.Float64frombits(deriv)
	}
}
