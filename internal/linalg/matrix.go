// Package linalg provides the dense linear algebra needed by the
// regression macro-modeling flow: matrices, Householder QR factorization
// and least-squares solving. The QR solve gives the paper's
// pseudo-inverse solution, x = A⁺b, without forming A⁺.
//
// The package is self-contained (stdlib only) and sized for the small,
// tall-skinny systems that arise in processor energy characterization
// (tens of test programs by ~21 model variables).
//
// Every product that feeds a sum is rounded by an explicit float64(...)
// conversion. The Go spec lets a compiler fuse x*y + z into one
// instruction that rounds once, and the arm64 compiler does; the
// conversion keeps arm64 on the bits amd64 and 386 compute
// (TestNoFusedMultiplyAdd).
package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense, row-major matrix of float64 values.
type Matrix struct {
	rows, cols int
	data       []float64 // len == rows*cols, row-major
}

// NewMatrix returns a zero-valued rows x cols matrix.
// It panics if either dimension is not positive.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: index (%d,%d) out of range for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// MulVec returns the matrix-vector product m*v as a slice.
func (m *Matrix) MulVec(v []float64) ([]float64, error) {
	if m.cols != len(v) {
		return nil, fmt.Errorf("linalg: dimension mismatch %dx%d * vec(%d)", m.rows, m.cols, len(v))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		mi := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, mij := range mi {
			s += float64(mij * v[j])
		}
		out[i] = s
	}
	return out, nil
}

// Dot returns the inner product of two equal-length slices.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, ai := range a {
		s += float64(ai * b[i])
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	// Scaled accumulation to avoid overflow for large entries.
	var scale, ssq float64
	ssq = 1
	for _, x := range v {
		if x == 0 {
			continue
		}
		ax := math.Abs(x)
		if scale < ax {
			r := scale / ax
			ssq = 1 + float64(ssq*r*r)
			scale = ax
		} else {
			r := ax / scale
			ssq += float64(r * r)
		}
	}
	if scale == 0 {
		return 0
	}
	return scale * math.Sqrt(ssq)
}
