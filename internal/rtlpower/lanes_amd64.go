//go:build amd64

package rtlpower

// countStripes16AVX2 is the 16-lane AVX2 tier (lanes16_amd64.s): two
// 8-wide YMM xorshift32 vectors with the remaining-draw counters held
// in YMM registers too, so the per-round min reduction and drained-lane
// detection are vectorized. Call only when cpufeat.AVX2 is set — the
// dispatch ladder guarantees this via SupportedKernels.
//
//go:noescape
func countStripes16AVX2(w *walk16)

// countStripes32AVX512 is the 32-lane AVX-512 tier (lanes32_amd64.s):
// two 16-wide ZMM vectors, unsigned VPCMPUD compares into opmasks and
// masked counter adds — no sign-bias trick needed. Requires the
// F+BW+DQ+VL subset (cpufeat.AVX512).
//
//go:noescape
func countStripes32AVX512(w *walk32)

// countStripes16 and countStripes32 run the wide walks; on amd64 the
// dispatch ladder only selects them on feature-checked hosts.
func countStripes16(w *walk16) { countStripes16AVX2(w) }
func countStripes32(w *walk32) { countStripes32AVX512(w) }
