package cpufeat

import (
	"runtime"
	"testing"
)

// TestFlagsMatchArch checks the flags are internally consistent with
// the architecture they were detected on: no cross-ISA leakage.
func TestFlagsMatchArch(t *testing.T) {
	t.Logf("GOARCH=%s avx2=%v avx512=%v neon=%v", runtime.GOARCH, AVX2, AVX512, NEON)
	switch runtime.GOARCH {
	case "amd64":
		if NEON {
			t.Error("NEON reported on amd64")
		}
	case "arm64":
		if AVX2 || AVX512 {
			t.Error("AVX reported on arm64")
		}
	default:
		if AVX2 || AVX512 || NEON {
			t.Errorf("SIMD features reported on %s", runtime.GOARCH)
		}
	}
}
