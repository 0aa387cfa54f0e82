//go:build !amd64

package rtlpower

// walkers is each tier's walker, indexed by Kernel.
var walkers = [numKernels]func(*walkArgs){KernelPortable: countStripes8Go}

// Architectures without a SIMD walker run the portable tier only.
func supportedKernels() []Kernel { return []Kernel{KernelPortable} }
