//go:build !amd64

package rtlpower

// The wide (16/64-lane) walks only have amd64 assembly; elsewhere they
// resolve to the portable walker. The dispatch ladder never selects
// the AVX tiers off amd64, so these exist to keep the width-generic
// chunk compiler compiling everywhere.
func countStripes16(w *walk16) { countStripes16Go(w) }
func countStripes64(w *walk64) { countStripes64Go(w) }
