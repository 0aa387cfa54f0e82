package rtlpower

import "xtenergy/internal/cpufeat"

// walkers is each tier's walker, indexed by Kernel; supportedKernels
// says which of them this host can run.
var walkers = [numKernels]func(*walkArgs){
	KernelPortable: countStripes8Go,
	KernelAVX2:     countStripes16AVX2,
	KernelAVX512:   countStripes64AVX512,
}

// supportedKernels lists the runnable tiers on this amd64 host. The
// SIMD tiers need CPU (and OS state) support detected by cpufeat; hosts
// without AVX2 run the portable walker.
func supportedKernels() []Kernel {
	ks := []Kernel{KernelPortable}
	if cpufeat.AVX2 {
		ks = append(ks, KernelAVX2)
	}
	if cpufeat.AVX512 {
		ks = append(ks, KernelAVX512)
	}
	return ks
}
