//go:build amd64

package rtlpower

// countStripes16AVX2 is the 16-lane AVX2 tier (lanes16_amd64.s): two
// 8-wide YMM xorshift32 vectors with the remaining-draw counters held
// in YMM registers too, so the per-round min reduction and drained-lane
// detection are vectorized. Call only when cpufeat.AVX2 is set — the
// dispatch ladder guarantees this via SupportedKernels.
//
//go:noescape
func countStripes16AVX2(w *walkArgs)

// countStripes64AVX512 is the 64-lane AVX-512 tier (lanes64_amd64.s):
// four 16-wide ZMM vectors advanced together on one round clock,
// unsigned VPCMPUD compares into opmasks and masked counter adds — no
// sign-bias trick needed. Requires the F+BW+DQ+VL subset
// (cpufeat.AVX512).
//
//go:noescape
func countStripes64AVX512(w *walkArgs)
