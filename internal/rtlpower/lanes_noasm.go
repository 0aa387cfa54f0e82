//go:build !arm64

package rtlpower

// countStripes8 runs one 8-lane walk; without an 8-lane SIMD kernel
// (everywhere but arm64) it is the portable lockstep walker, still
// ILP-bound instead of latency-bound.
func countStripes8(w *walk8) { countStripes8Go(w) }
