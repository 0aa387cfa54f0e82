// Package cpufeat detects, at process start, the CPU features the
// rtlpower stripe-walker dispatch ladder can use: AVX2 and AVX-512 on
// amd64 (CPUID plus an XGETBV check that the OS actually saves the
// wider register state). It is stdlib-only by design — the same job golang.org/x/sys/cpu or the
// vendored templexxx/cpu do for klauspost/reedsolomon — so the module
// keeps its zero-dependency property.
//
// The flags are plain bools set once during package init and never
// written again; readers need no synchronization.
package cpufeat

// Feature flags for the current CPU. A flag is true only when both the
// hardware instruction set and the required OS register-state support
// are present, so a kernel gated on it can be called unconditionally.
var (
	// AVX2 reports 256-bit integer SIMD (and the OS saving YMM state).
	AVX2 bool
	// AVX512 reports the F+BW+DQ+VL subset the 64-lane walker needs
	// (and the OS saving ZMM/opmask state).
	AVX512 bool
)
