// Package mat implements the dense float64 matrix kernel used by the
// Geomancy neural-network library. It is deliberately small: row-major
// matrices, the handful of operations backpropagation needs, and nothing
// else. All operations either allocate a fresh result or write into an
// explicitly provided destination so that training loops can reuse buffers.
package mat

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"unsafe"
)

// Matrix is a dense, row-major matrix of float64 values.
type Matrix struct {
	Rows, Cols int
	// Data holds the elements in row-major order: element (r,c) lives at
	// Data[r*Cols+c]. len(Data) == Rows*Cols always.
	Data []float64
}

// New returns a zero-valued rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice builds a rows×cols matrix backed by a copy of data, which must
// contain exactly rows*cols values in row-major order.
//
//geomancy:allow testonly literal operands and expected values in mat, nn and features kernel tests
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: FromSlice got %d values for %dx%d", len(data), rows, cols))
	}
	m := New(rows, cols)
	copy(m.Data, data)
	return m
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for r, row := range rows {
		if len(row) != cols {
			panic(fmt.Sprintf("mat: FromRows row %d has %d cols, want %d", r, len(row), cols))
		}
		copy(m.Data[r*cols:(r+1)*cols], row)
	}
	return m
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Resize re-slices m to rows rows over the storage it already has: the
// way a buffer sized for a full batch serves a short last batch without a
// new allocation. Contents are whatever the storage held; rows*Cols must
// fit the capacity m was created with.
func (m *Matrix) Resize(rows int) {
	if rows < 0 || rows*m.Cols > cap(m.Data) {
		panic(fmt.Sprintf("mat: Resize to %d rows exceeds the %d-value storage of a %d-column matrix", rows, cap(m.Data), m.Cols))
	}
	m.Rows, m.Data = rows, m.Data[:rows*m.Cols]
}

// Grow returns a rows×cols matrix for a buffer that is refilled at a
// different height on every use: m itself, re-sliced, when its storage is
// large enough, otherwise a new matrix with a quarter more room than asked
// for, so that heights wandering around one size settle on one allocation
// instead of making a new one each time. The contents are unspecified. m
// may be nil.
func Grow(m *Matrix, rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %dx%d", rows, cols))
	}
	need := rows * cols
	if m == nil || need > cap(m.Data) {
		m = &Matrix{Data: make([]float64, need+need/4)}
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:need]
	return m
}

// At returns the element at row r, column c.
func (m *Matrix) At(r, c int) float64 {
	m.boundsCheck(r, c)
	return m.Data[r*m.Cols+c]
}

// Set stores v at row r, column c.
func (m *Matrix) Set(r, c int, v float64) {
	m.boundsCheck(r, c)
	m.Data[r*m.Cols+c] = v
}

func (m *Matrix) boundsCheck(r, c int) {
	if r < 0 || r >= m.Rows || c < 0 || c >= m.Cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range for %dx%d", r, c, m.Rows, m.Cols))
	}
}

// Row returns row r as a slice aliasing the matrix storage.
func (m *Matrix) Row(r int) []float64 {
	if r < 0 || r >= m.Rows {
		panic(fmt.Sprintf("mat: row %d out of range for %dx%d", r, m.Rows, m.Cols))
	}
	return m.Data[r*m.Cols : (r+1)*m.Cols]
}

// SetRow copies vals into row r; len(vals) must equal Cols.
func (m *Matrix) SetRow(r int, vals []float64) {
	if len(vals) != m.Cols {
		panic(fmt.Sprintf("mat: SetRow got %d values, want %d", len(vals), m.Cols))
	}
	copy(m.Row(r), vals)
}

// Zero sets every element to 0 in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v in place.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// XavierInit fills m with the Glorot/Xavier uniform initialization for a
// layer with the given fan-in and fan-out. It is the standard choice for
// the small dense and recurrent layers in the Geomancy model zoo.
func (m *Matrix) XavierInit(rng *rand.Rand, fanIn, fanOut int) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * limit
	}
}

// sameShape panics unless a and b have identical dimensions.
func sameShape(op string, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// Mul returns the matrix product a×b. It panics if a.Cols != b.Rows.
func Mul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	MulTo(out, a, b)
	return out
}

// MulTo computes dst = a×b, reusing dst's storage. dst must be a.Rows×b.Cols
// and must not alias a or b. Every element is its products summed in
// ascending k from +0; a term whose product could only be ±0 — all four
// coefficients of a 4-row tile ±0, every weight finite — may be left out,
// which changes no bit (see mulRows).
func MulTo(dst, a, b *Matrix) {
	checkMul("MulTo", dst, a, b)
	mulRows(dst, a, b, nil, false, 0, a.Rows)
}

// MulBiasTo computes dst = a×b + bias, bias added to every row, and then,
// if rectify, sets every element less than zero to +0: a dense layer's
// forward pass with its Linear or ReLU epilogue. dst must be a.Rows×b.Cols
// and must not alias a or b; len(bias) must be b.Cols.
//
// Element (i,j) is MulTo's sum, with the same terms left out, then that
// sum + bias[j], then the select, each step rounded as the separate passes
// would round it: the result is bit-identical to MulTo followed by
// AddRowVector and a `v < 0 → 0` pass, which keeps −0 and NaN as they are.
func MulBiasTo(dst, a, b *Matrix, bias []float64, rectify bool) {
	checkMul("MulBiasTo", dst, a, b)
	if len(bias) != b.Cols {
		panic(fmt.Sprintf("mat: MulBiasTo bias has %d values, want %d", len(bias), b.Cols))
	}
	mulRows(dst, a, b, bias, rectify, 0, a.Rows)
}

// checkMul panics unless dst = a×b is a product of matching shapes whose
// destination shares no storage with an operand.
func checkMul(op string, dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: Mul inner dimension mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: %s dst is %dx%d, want %dx%d", op, dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	if overlaps(dst, a) || overlaps(dst, b) {
		panic("mat: " + op + " dst aliases an operand")
	}
}

// mulRows computes output rows [lo, hi) of dst = a×b and, unless bias is
// nil, MulBiasTo's epilogue on them. Each output row depends only on the
// matching row of a, and every element sums its products in ascending-k
// order from +0, each product rounded before it is added. The assembly
// tile leaves out a term k only when all four of its rows' coefficients
// a[r][k] are ±0 and every value of b is finite: a chain started at +0 is
// never −0, and x + ±0 is x for every other x, so the ±0 products it
// leaves out would not have changed a bit. When some value of b is ±Inf
// or NaN it walks every term, so 0·±Inf is NaN wherever the row sits.
// rowCombine and mulRowsGo sum every term and are the oracle the tile is
// checked against. That makes disjoint row ranges safe to run
// concurrently and a row's bits independent of the batch it is in, of how
// the rows are sharded, of whether it falls in a 4-row tile and of which
// body below produced it.
func mulRows(dst, a, b *Matrix, bias []float64, rectify bool, lo, hi int) {
	n, kdim := b.Cols, a.Cols
	j0 := 0
	if useAVX2 && n >= 4 {
		j0 = n &^ 3
		tiled := lo + (hi-lo)&^3
		if tiled > lo {
			// A tile's term list: up to kdim addresses into a, then as many
			// offsets into b. Layer widths up to 256 keep it on the stack.
			var buf [2 * 256]int
			terms := buf[:]
			if kdim > len(buf)/2 {
				terms = make([]int, 2*kdim)
			}
			mulTile4AVX2(unsafe.SliceData(dst.Data[lo*n:]), unsafe.SliceData(a.Data[lo*kdim:]), kdim,
				unsafe.SliceData(b.Data), n, (tiled-lo)/4, unsafe.SliceData(bias), rectify,
				unsafe.SliceData(terms), !allFinite(b.Data))
		}
		if tiled < hi {
			// The last rows: row i of the product is the combination of b's
			// rows with row i of a as coefficients. The offsets of b's rows
			// are the same for every i; kdim is a layer width, so they fit
			// the stack.
			var buf [256]int
			off := buf[:0]
			if kdim > len(buf) {
				off = make([]int, 0, kdim)
			}
			for k := 0; k < kdim; k++ {
				off = append(off, k*n)
			}
			for i := tiled; i < hi; i++ {
				row := dst.Data[i*n : i*n+j0]
				rowCombine(row, b.Data, a.Data[i*kdim:(i+1)*kdim], off, false)
				if bias != nil {
					epilogueGo(row, bias, rectify)
				}
			}
		}
	}
	if j0 < n {
		mulRowsGo(dst, a, b, lo, hi, j0)
		if bias != nil {
			for i := lo; i < hi; i++ {
				epilogueGo(dst.Data[i*n+j0:(i+1)*n], bias[j0:], rectify)
			}
		}
	}
}

// epilogueGo is the portable twin of mulTile4AVX2's epilogue, over one
// stretch of a row and the matching stretch of bias: row[j] + bias[j],
// the accumulated sum first as in the assembly, then, if rectify, v < 0 →
// +0.
func epilogueGo(row, bias []float64, rectify bool) {
	bias = bias[:len(row)]
	if !rectify {
		for j, bv := range bias {
			row[j] += bv
		}
		return
	}
	for j, bv := range bias {
		v := row[j] + bv
		// Selected on the bit pattern so the compiler emits a branchless
		// select: activation signs are close to random, so a branch here
		// mispredicts half the time. The strict v < 0 keeps −0 and NaN.
		bits := math.Float64bits(v)
		if v < 0 {
			bits = 0
		}
		row[j] = math.Float64frombits(bits)
	}
}

// mulRowsGo is mulRows' portable body, over output columns [j0, b.Cols):
// all of them where there is no assembly, the last few where there is.
func mulRowsGo(dst, a, b *Matrix, lo, hi, j0 int) {
	// Output rows are processed four at a time with a 4×2 register tile:
	// eight accumulators live in registers across the whole k loop, so the
	// hot loop issues no stores and reuses every loaded b element across
	// four rows. Each output element still sums its products in
	// ascending-k order, so the result is bit-identical to the
	// one-row-at-a-time loop below. An empty inner dimension (b has no
	// element to point the walk at) goes to that loop too.
	n := b.Cols
	kdim := a.Cols
	i := lo
	for ; kdim > 0 && i+4 <= hi; i += 4 {
		a0 := a.Data[i*kdim : (i+1)*kdim]
		a1 := a.Data[(i+1)*kdim : (i+2)*kdim]
		a2 := a.Data[(i+2)*kdim : (i+3)*kdim]
		a3 := a.Data[(i+3)*kdim : (i+4)*kdim]
		d0 := dst.Data[i*n : (i+1)*n]
		d1 := dst.Data[(i+1)*n : (i+2)*n]
		d2 := dst.Data[(i+2)*n : (i+3)*n]
		d3 := dst.Data[(i+3)*n : (i+4)*n]
		// The b column loads stride by n each k step, a pattern the
		// bounds-check prover cannot handle; a pointer walk keeps the
		// two loads per step check-free. b.Data is reachable from the
		// argument for the whole loop, so the pointer stays valid.
		stride := uintptr(n) * 8
		j := j0
		for ; j+2 <= n; j += 2 {
			var s00, s01, s10, s11, s20, s21, s30, s31 float64
			pb := unsafe.Pointer(&b.Data[j])
			k := 0
			for ; k+2 <= kdim; k += 2 {
				v0, v1, v2, v3 := a0[k], a1[k], a2[k], a3[k]
				b0 := *(*float64)(pb)
				b1 := *(*float64)(unsafe.Add(pb, 8))
				s00 += v0 * b0
				s01 += v0 * b1
				s10 += v1 * b0
				s11 += v1 * b1
				s20 += v2 * b0
				s21 += v2 * b1
				s30 += v3 * b0
				s31 += v3 * b1
				w0, w1, w2, w3 := a0[k+1], a1[k+1], a2[k+1], a3[k+1]
				c0 := *(*float64)(unsafe.Add(pb, stride))
				c1 := *(*float64)(unsafe.Add(pb, stride+8))
				s00 += w0 * c0
				s01 += w0 * c1
				s10 += w1 * c0
				s11 += w1 * c1
				s20 += w2 * c0
				s21 += w2 * c1
				s30 += w3 * c0
				s31 += w3 * c1
				pb = unsafe.Add(pb, 2*stride)
			}
			for ; k < kdim; k++ {
				v0, v1, v2, v3 := a0[k], a1[k], a2[k], a3[k]
				b0 := *(*float64)(pb)
				b1 := *(*float64)(unsafe.Add(pb, 8))
				s00 += v0 * b0
				s01 += v0 * b1
				s10 += v1 * b0
				s11 += v1 * b1
				s20 += v2 * b0
				s21 += v2 * b1
				s30 += v3 * b0
				s31 += v3 * b1
				pb = unsafe.Add(pb, stride)
			}
			d0[j], d0[j+1] = s00, s01
			d1[j], d1[j+1] = s10, s11
			d2[j], d2[j+1] = s20, s21
			d3[j], d3[j+1] = s30, s31
		}
		for ; j < n; j++ {
			var s0, s1, s2, s3 float64
			pb := unsafe.Pointer(&b.Data[j])
			for k := 0; k < kdim; k++ {
				v0, v1, v2, v3 := a0[k], a1[k], a2[k], a3[k]
				bv := *(*float64)(pb)
				s0 += v0 * bv
				s1 += v1 * bv
				s2 += v2 * bv
				s3 += v3 * bv
				pb = unsafe.Add(pb, stride)
			}
			d0[j], d1[j], d2[j], d3[j] = s0, s1, s2, s3
		}
	}
	for ; i < hi; i++ {
		drow := dst.Data[i*n+j0 : (i+1)*n]
		for j := range drow {
			drow[j] = 0
		}
		for k, av := range a.Data[i*kdim : (i+1)*kdim] {
			brow := b.Data[k*n+j0 : (k+1)*n]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// parallelMulMinRows is the batch height below which ParallelMulTo stays
// serial: smaller products finish faster than goroutine handoff costs.
const parallelMulMinRows = 32

// ParallelMulTo computes dst = a×b like MulTo, sharding the output rows
// across up to workers goroutines. Every output row is produced with the
// same arithmetic order as the serial product, so the result is
// bit-for-bit identical for any worker count.
func ParallelMulTo(dst, a, b *Matrix, workers int) {
	checkMul("ParallelMulTo", dst, a, b)
	if workers > a.Rows/parallelMulMinRows {
		workers = a.Rows / parallelMulMinRows
	}
	if workers <= 1 {
		mulRows(dst, a, b, nil, false, 0, a.Rows)
		return
	}
	chunk := (a.Rows + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < a.Rows; lo += chunk {
		hi := lo + chunk
		if hi > a.Rows {
			hi = a.Rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			mulRows(dst, a, b, nil, false, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// TransposeTo writes mᵀ into dst, which must be m.Cols×m.Rows and must not
// alias m. Packing bᵀ once turns any number of a×bᵀ products into plain
// forward products a×(bᵀ), element for element the same sums.
//
// Whole 4×4 blocks move with four contiguous loads and four contiguous
// stores: on a CPU with AVX2 transpose4AVX2 turns each block in registers,
// and transposeGo takes the rows and columns past the last whole block,
// and everything elsewhere. Only bits move, so every body writes every
// value exactly, NaN payloads included.
func TransposeTo(dst, m *Matrix) {
	if dst.Rows != m.Cols || dst.Cols != m.Rows {
		panic(fmt.Sprintf("mat: TransposeTo dst is %dx%d, want %dx%d", dst.Rows, dst.Cols, m.Cols, m.Rows))
	}
	if overlaps(dst, m) {
		panic("mat: TransposeTo dst aliases m")
	}
	c0 := 0
	if useAVX2 && m.Rows >= 4 && m.Cols >= 4 {
		transpose4AVX2(unsafe.SliceData(dst.Data), unsafe.SliceData(m.Data), m.Rows, m.Cols)
		c0 = m.Cols &^ 3
	}
	transposeGo(dst, m, c0)
}

// transposeGo is TransposeTo's portable body: columns [c0, m.Cols) of the
// rows in whole blocks of four, then every column of the rows after them.
// Four rows go at a time, so each column of m becomes four adjacent stores
// into one row of dst instead of four stores a row apart.
func transposeGo(dst, m *Matrix, c0 int) {
	rows, cols := m.Rows, m.Cols
	r := 0
	for ; r+4 <= rows; r += 4 {
		s0 := m.Data[r*cols : (r+1)*cols]
		s1 := m.Data[(r+1)*cols : (r+2)*cols]
		s2 := m.Data[(r+2)*cols : (r+3)*cols]
		s3 := m.Data[(r+3)*cols : (r+4)*cols]
		for c := c0; c < cols; c++ {
			d := dst.Data[c*rows+r : c*rows+r+4 : c*rows+r+4]
			d[0], d[1], d[2], d[3] = s0[c], s1[c], s2[c], s3[c]
		}
	}
	for ; r < rows; r++ {
		for c, v := range m.Data[r*cols : (r+1)*cols] {
			dst.Data[c*rows+r] = v
		}
	}
}

// AddInPlace sets a += b elementwise.
func AddInPlace(a, b *Matrix) {
	sameShape("AddInPlace", a, b)
	ad, bd := a.Data, b.Data[:len(a.Data)]
	for i, v := range bd {
		ad[i] += v
	}
}

// Hadamard returns the elementwise product a∘b.
func Hadamard(a, b *Matrix) *Matrix {
	sameShape("Hadamard", a, b)
	out := New(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] * b.Data[i]
	}
	return out
}

// AddScaled sets a += s*b elementwise; the axpy of gradient descent. It is
// the one-term row combination, so every element is a + (s·b) with the
// product rounded first, exactly as `a[i] += s*b[i]`.
func AddScaled(a *Matrix, s float64, b *Matrix) {
	sameShape("AddScaled", a, b)
	coef, off := [1]float64{s}, [1]int{0}
	rowCombine(a.Data, b.Data, coef[:], off[:], true)
}

// ReLUGradTo sets dst = grad ∘ (out > 0): the gradient through a ReLU whose
// output was out. The derivative is 1 where out > 0 and 0 everywhere else,
// NaN included (the compare is ordered), and the product is still taken,
// so a zero derivative keeps grad's sign on the zero and turns ±Inf and
// NaN into NaN, as multiplying by DerivFromOutput's factor does. dst may be
// grad itself.
func ReLUGradTo(dst, grad, out *Matrix) {
	sameShape("ReLUGradTo", dst, grad)
	sameShape("ReLUGradTo", dst, out)
	reluGrad(dst.Data, grad.Data, out.Data)
}

// Apply returns a new matrix with f applied to every element of m.
func (m *Matrix) Apply(f func(float64) float64) *Matrix {
	out := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = f(v)
	}
	return out
}

// ApplyInPlace applies f to every element of m in place.
func (m *Matrix) ApplyInPlace(f func(float64) float64) {
	for i, v := range m.Data {
		m.Data[i] = f(v)
	}
}

// AddRowVector adds the 1×Cols vector v to every row of m, in place.
// This is the bias-broadcast used by every layer.
func (m *Matrix) AddRowVector(v *Matrix) {
	if v.Rows != 1 || v.Cols != m.Cols {
		panic(fmt.Sprintf("mat: AddRowVector vector is %dx%d, want 1x%d", v.Rows, v.Cols, m.Cols))
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for c := range row {
			row[c] += v.Data[c]
		}
	}
}

// SumRows returns a 1×Cols vector whose entries are the column sums of m;
// the reduction used for bias gradients. It is AddSumRowsTo into a fresh
// +0 row.
func (m *Matrix) SumRows() *Matrix {
	out := New(1, m.Cols)
	AddSumRowsTo(out, m)
	return out
}

// AddSumRowsTo adds the column sums of m into the 1×m.Cols vector dst,
// which must not alias m. Element j becomes ((dst[j] + m[0][j]) + m[1][j])
// + … in ascending row order: the row combination of m's rows with every
// coefficient 1, and 1·x is x exactly, so each step is the plain `dst[j] +=
// v`.
func AddSumRowsTo(dst, m *Matrix) {
	if dst.Rows != 1 || dst.Cols != m.Cols {
		panic(fmt.Sprintf("mat: AddSumRowsTo dst is %dx%d, want 1x%d", dst.Rows, dst.Cols, m.Cols))
	}
	if overlaps(dst, m) {
		panic("mat: AddSumRowsTo dst aliases m")
	}
	// Up to transATile rows per rowCombine; the offsets are relative to the
	// tile's first row, so one set serves every tile.
	n := m.Cols
	var ones [transATile]float64
	var off [transATile]int
	for t := range ones {
		ones[t], off[t] = 1, t*n
	}
	for r0 := 0; r0 < m.Rows; r0 += transATile {
		terms := min(transATile, m.Rows-r0)
		rowCombine(dst.Data, m.Data[r0*n:], ones[:terms], off[:terms], true)
	}
}

// Equal reports whether a and b have the same shape and all elements are
// within tol of each other.
//
//geomancy:allow testonly tolerance comparison in mat kernel tests and features.TestMinMaxScaler
func Equal(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%dx%d[", m.Rows, m.Cols)
	for r := 0; r < m.Rows; r++ {
		if r > 0 {
			b.WriteString("; ")
		}
		for c := 0; c < m.Cols; c++ {
			if c > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.4g", m.At(r, c))
		}
	}
	b.WriteByte(']')
	return b.String()
}
