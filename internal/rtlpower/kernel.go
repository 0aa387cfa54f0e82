package rtlpower

import (
	"fmt"
	"strings"
)

// Kernel identifies one tier of the stripe-walker dispatch ladder. The
// tiers compute bit-identical toggle counts — they differ only in lane
// width and instruction set — so switching tiers never changes a
// report, only how fast it is produced.
type Kernel uint32

const (
	// KernelPortable is the pure-Go lockstep walker (any architecture).
	KernelPortable Kernel = iota
	// KernelAVX2 is the 16-lane amd64 kernel (lanes16_amd64.s).
	KernelAVX2
	// KernelAVX512 is the 64-lane amd64 kernel (lanes64_amd64.s).
	KernelAVX512

	numKernels
)

var kernelNames = [numKernels]string{"portable", "avx2", "avx512"}

// String returns the tier's name.
func (k Kernel) String() string {
	if int(k) < len(kernelNames) {
		return kernelNames[k]
	}
	return fmt.Sprintf("kernel(%d)", uint32(k))
}

// width is the tier's lane count: how many stripes the draw chain is
// cut into per walk. The jump-ahead clipping in compile adapts to it,
// so every tier stays bit-identical to the sequential oracle.
func (k Kernel) width() int {
	switch k {
	case KernelAVX2:
		return 16
	case KernelAVX512:
		return 64
	}
	return 8
}

// selectedKernel is the widest tier this host runs (supportedKernels
// lists narrowest first), fixed at init from the CPU features.
var selectedKernel = func() Kernel {
	ks := supportedKernels()
	return ks[len(ks)-1]
}()

// SelectedKernel returns the walker tier New gives every estimator:
// the widest tier the host CPU supports.
func SelectedKernel() Kernel { return selectedKernel }

// SupportedKernels lists the tiers compiled in and runnable on this
// host, narrowest first.
func SupportedKernels() []Kernel { return supportedKernels() }

// WithKernel returns a copy of e whose streams walk on tier k, for
// oracle comparison and per-tier benchmarks; e itself is untouched.
// The copy starts with its own Describe cache. Tiers this host cannot
// run are refused.
func (e *Estimator) WithKernel(k Kernel) (*Estimator, error) {
	supported := supportedKernels()
	for _, s := range supported {
		if s == k {
			c := *e
			c.kernel = k
			c.desc = nil
			return &c, nil
		}
	}
	names := make([]string, len(supported))
	for i, s := range supported {
		names[i] = s.String()
	}
	return nil, fmt.Errorf("rtlpower: kernel %s is not supported on this host (supported: %s)",
		k, strings.Join(names, ", "))
}
