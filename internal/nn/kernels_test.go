package nn

import (
	"testing"
	_ "unsafe" // for go:linkname
)

// matUseAVX2 is internal/mat's unexported kernel switch, mat.useAVX2. The
// trainer's bit-identity tests run on both of mat's implementations in one
// process, and mat has no exported knob for that (nothing outside tests
// may choose a kernel), so the tests reach the variable by name.
//
//go:linkname matUseAVX2 geomancy/internal/mat.useAVX2
var matUseAVX2 bool

// onEachKernel runs f with mat on its portable kernels and then, where
// this machine has them, on its assembly ones, naming which.
func onEachKernel(t *testing.T, f func(kernel string)) {
	t.Helper()
	have := matUseAVX2
	defer func() { matUseAVX2 = have }()
	matUseAVX2 = false
	f("portable")
	if have {
		matUseAVX2 = true
		f("avx2")
	}
}
