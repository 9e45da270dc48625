//go:build !amd64 || purego

package mat

// The assembly kernels have no body on this platform and useAVX2 stays
// false, so nothing calls them.
func rowCombineAVX2(out *float64, n int, b *float64, coef *float64, off *int, terms int, accumulate bool) {
	panic("mat: no assembly row combination on this platform")
}

func rowCombineMasksAVX2(out *float64, n int, b *float64, boff *int, coef *float64, coff *int, masks *uint64, rows int) {
	panic("mat: no assembly masked row combination on this platform")
}

func nonzeroMasksAVX2(masks *uint64, a *float64, stride int, rows int, blocks int) {
	panic("mat: no assembly zero-skip masks on this platform")
}

func transpose4AVX2(dst *float64, src *float64, rows int, cols int) {
	panic("mat: no assembly transpose on this platform")
}

func mulTile4AVX2(dst *float64, a *float64, kdim int, b *float64, n int, tiles int, bias *float64, rectify bool, terms *int, all bool) {
	panic("mat: no assembly tile kernel on this platform")
}

func tileTermsAVX2(terms *int, a *float64, kdim int, n int, all bool) int {
	panic("mat: no assembly tile term list on this platform")
}

func allFiniteAVX2(x *float64, n int) bool {
	panic("mat: no assembly finiteness check on this platform")
}

func reluGradAVX2(dst *float64, grad *float64, out *float64, n int) {
	panic("mat: no assembly gate kernel on this platform")
}
