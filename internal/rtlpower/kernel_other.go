//go:build !amd64

package rtlpower

// Architectures without a SIMD walker run the portable tier only.
func supportedKernels() []Kernel { return []Kernel{KernelPortable} }
