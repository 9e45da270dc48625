//go:build !purego

package mat

func init() { useAVX2 = detectAVX2() }

// detectAVX2 reports whether the assembly kernels may run here: the CPU has
// AVX2 and the OS saves the YMM registers across context switches.
func detectAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if eax, _ := xgetbv(); eax&6 != 6 { // XCR0: SSE and AVX state enabled
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

//go:noescape
func rowCombineAVX2(out *float64, n int, b *float64, coef *float64, off *int, terms int, accumulate bool)

//go:noescape
func rowCombineMasksAVX2(out *float64, n int, b *float64, boff *int, coef *float64, coff *int, masks *uint64, rows int)

//go:noescape
func nonzeroMasksAVX2(masks *uint64, a *float64, stride int, rows int, blocks int)

//go:noescape
func transpose4AVX2(dst *float64, src *float64, rows int, cols int)

//go:noescape
func mulTile4AVX2(dst *float64, a *float64, kdim int, b *float64, n int, tiles int, bias *float64, rectify bool, terms *int, all bool)

// tileTermsAVX2 is mulTile4AVX2's term-list builder on its own, the same
// TERMLIST macro, so that the list can be checked against the scalar rule.
//
//go:noescape
//geomancy:allow testonly the tile kernel inlines the same macro; FuzzTileTerms and TestTileTermsMatchScalarRule check the list through this entry
func tileTermsAVX2(terms *int, a *float64, kdim int, n int, all bool) int

//go:noescape
func allFiniteAVX2(x *float64, n int) bool

//go:noescape
func reluGradAVX2(dst *float64, grad *float64, out *float64, n int)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
