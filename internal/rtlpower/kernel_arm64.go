package rtlpower

import "xtenergy/internal/cpufeat"

// supportedKernels lists the runnable tiers on this arm64 host. ASIMD
// is part of every AArch64 target Go supports, so NEON is present in
// practice.
func supportedKernels() []Kernel {
	ks := []Kernel{KernelPortable}
	if cpufeat.NEON {
		ks = append(ks, KernelNEON)
	}
	return ks
}
