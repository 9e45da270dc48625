package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// checkTileTerms builds the term list of the tile a (four rows of kdim,
// one after another) with the assembly and checks it against the scalar
// rule: term k is listed, in ascending order, exactly when all is set or
// a[r][k] != 0 for some r < 4 — so ±0 is left out and NaN is not — with
// the address of a[0][k] in the first kdim values and k·n·8 in the next
// kdim. The list sits between two guard values nothing may touch.
func checkTileTerms(t *testing.T, what string, a []float64, kdim, n int, all bool) {
	t.Helper()
	const guard = -12345
	buf := make([]int, 2*kdim+2)
	buf[0], buf[len(buf)-1] = guard, guard
	terms := buf[1 : 1+2*kdim]
	var base *float64
	if kdim > 0 {
		base = &a[0]
	}
	got := tileTermsAVX2(unsafe.SliceData(terms), base, kdim, n, all)
	if buf[0] != guard || buf[len(buf)-1] != guard {
		t.Fatalf("%s: wrote outside the term list", what)
	}
	var want []int
	for k := 0; k < kdim; k++ {
		if all || a[k] != 0 || a[kdim+k] != 0 || a[2*kdim+k] != 0 || a[3*kdim+k] != 0 {
			want = append(want, k)
		}
	}
	if got != len(want) {
		t.Fatalf("%s: %d terms, want %d (%v)", what, got, len(want), want)
	}
	for i, k := range want {
		if addr := int(uintptr(unsafe.Pointer(&a[k]))); terms[i] != addr {
			t.Fatalf("%s: term %d is a at %#x, want column %d at %#x", what, i, terms[i], k, addr)
		}
		if terms[kdim+i] != k*n*8 {
			t.Fatalf("%s: term %d has b offset %d, want %d (column %d)", what, i, terms[kdim+i], k*n*8, k)
		}
	}
}

// Every value that must be walked (NaN, ±Inf, a normal number) and every
// one that must not (+0, −0), alone in a tile of zeros, at every column
// and row of every kdim up to three blocks and a tail — every kdim mod 4.
func TestTileTermsMatchScalarRule(t *testing.T) {
	if !useAVX2 {
		t.Skip("no assembly tile kernel on this machine")
	}
	values := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1.5, -5e-324}
	for kdim := 0; kdim <= 13; kdim++ {
		for _, all := range []bool{false, true} {
			for _, v := range values {
				for col := 0; col < kdim; col++ {
					for row := 0; row < 4; row++ {
						a := make([]float64, 4*kdim)
						a[row*kdim+col] = v
						checkTileTerms(t, fmt.Sprintf("kdim=%d all=%v a[%d][%d]=%v", kdim, all, row, col, v), a, kdim, 7, all)
					}
				}
			}
			checkTileTerms(t, fmt.Sprintf("kdim=%d all=%v zeros", kdim, all), make([]float64, 4*kdim), kdim, 7, all)
		}
	}
	rng := rand.New(rand.NewSource(27))
	for _, kdim := range []int{96, 255, 256, 300} {
		for _, fill := range []string{"zeros", "sparse", "specials"} {
			a := filled(rng, 4, kdim, fill).Data
			checkTileTerms(t, fmt.Sprintf("kdim=%d %s", kdim, fill), a, kdim, 48, false)
		}
	}
}

// FuzzTileTerms checks the tile term list against the scalar rule on bit
// patterns mixed with ±0, ±Inf and NaN (fuzzInput.mixed), with zero
// columns set across all four rows, at every kdim up to 255 and so every
// kdim mod 4 and every column position. The seeds cover each kdim mod 4.
func FuzzTileTerms(f *testing.F) {
	for kdim := uint8(0); kdim < 8; kdim++ {
		f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0x80, 1}, kdim, uint8(5), false)
	}
	f.Add([]byte{}, uint8(96), uint8(48), true)
	f.Fuzz(func(t *testing.T, data []byte, kdim, n uint8, all bool) {
		if !useAVX2 {
			t.Skip("no assembly tile kernel on this machine")
		}
		in := &fuzzInput{data: data}
		k := int(kdim)
		a := in.mixed(4 * k)
		for c := 0; c < k; c++ {
			if in.next()%3 == 0 {
				for r := 0; r < 4; r++ {
					a[r*k+c] = specials[in.next()%2] // +0 or −0
				}
			}
		}
		checkTileTerms(t, fmt.Sprintf("kdim=%d n=%d all=%v", k, n, all), a, k, int(n), all)
	})
}

// allFinite must find a single ±Inf or NaN at every position of every
// length on both bodies, and pass every finite value, ±0 and the extremes
// included.
func TestAllFiniteFindsEveryPosition(t *testing.T) {
	onEachKernel(t, func(kernel string) {
		finite := []float64{0, math.Copysign(0, -1), 5e-324, -math.MaxFloat64, math.MaxFloat64, 1}
		for n := 0; n <= 37; n++ {
			x := make([]float64, n)
			for i := range x {
				x[i] = finite[i%len(finite)]
			}
			if !allFinite(x) {
				t.Fatalf("%s: %d finite values reported non-finite", kernel, n)
			}
			for i := range x {
				for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
					keep := x[i]
					x[i] = v
					if allFinite(x) {
						t.Fatalf("%s: %v at %d of %d not found", kernel, v, i, n)
					}
					x[i] = keep
				}
			}
		}
	})
}
