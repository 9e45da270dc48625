//go:build !amd64 || purego

package mat

// rowCombineAVX2 has no body on this platform and useAVX2 stays false, so
// nothing calls it.
func rowCombineAVX2(out *float64, n int, b *float64, coef *float64, off *int, terms int, accumulate bool) {
	panic("mat: no assembly row combination on this platform")
}
