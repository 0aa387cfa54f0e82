//go:build !amd64

package cpufeat

// No SIMD kernels exist for other architectures; every flag stays
// false and the dispatch ladder settles on the portable walker.
