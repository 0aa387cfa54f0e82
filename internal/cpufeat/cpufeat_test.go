package cpufeat

import (
	"runtime"
	"testing"
)

// TestFlagsMatchArch checks that no SIMD flag is set off amd64, the
// only architecture with SIMD walker kernels.
func TestFlagsMatchArch(t *testing.T) {
	t.Logf("GOARCH=%s avx2=%v avx512=%v", runtime.GOARCH, AVX2, AVX512)
	if runtime.GOARCH != "amd64" && (AVX2 || AVX512) {
		t.Errorf("SIMD features reported on %s", runtime.GOARCH)
	}
}
