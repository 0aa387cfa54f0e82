// Package linalg provides the dense linear algebra needed by the
// regression macro-modeling flow: matrices, Householder QR factorization,
// least-squares solving, and the Moore-Penrose pseudo-inverse.
//
// The package is self-contained (stdlib only) and sized for the small,
// tall-skinny systems that arise in processor energy characterization
// (tens of test programs by ~21 model variables).
package linalg

import (
	"errors"
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

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, errors.New("linalg: FromRows requires at least one non-empty row")
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("linalg: row %d has %d entries, want %d", i, len(r), cols)
		}
		copy(m.data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// NewVector returns a column vector holding a copy of v.
func NewVector(v []float64) *Matrix {
	m := NewMatrix(len(v), 1)
	copy(m.data, v)
	return m
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
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

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("linalg: row %d out of range for %dx%d matrix", i, m.rows, m.cols))
	}
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: col %d out of range for %dx%d matrix", j, m.rows, m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// ColVector returns a copy of the single column of a column vector as a slice.
// It panics if m has more than one column.
func (m *Matrix) ColVector() []float64 {
	if m.cols != 1 {
		panic(fmt.Sprintf("linalg: ColVector on %dx%d matrix", m.rows, m.cols))
	}
	return m.Col(0)
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// Mul returns the matrix product m*b.
func (m *Matrix) Mul(b *Matrix) (*Matrix, error) {
	if m.cols != b.rows {
		return nil, fmt.Errorf("linalg: dimension mismatch %dx%d * %dx%d", m.rows, m.cols, b.rows, b.cols)
	}
	out := NewMatrix(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		mi := m.data[i*m.cols : (i+1)*m.cols]
		oi := out.data[i*out.cols : (i+1)*out.cols]
		for k, mik := range mi {
			if mik == 0 {
				continue
			}
			bk := b.data[k*b.cols : (k+1)*b.cols]
			for j, bkj := range bk {
				oi[j] += mik * bkj
			}
		}
	}
	return out, nil
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
			s += mij * v[j]
		}
		out[i] = s
	}
	return out, nil
}

// Add returns m + b.
func (m *Matrix) Add(b *Matrix) (*Matrix, error) {
	if m.rows != b.rows || m.cols != b.cols {
		return nil, fmt.Errorf("linalg: dimension mismatch %dx%d + %dx%d", m.rows, m.cols, b.rows, b.cols)
	}
	out := m.Clone()
	for i := range out.data {
		out.data[i] += b.data[i]
	}
	return out, nil
}

// Sub returns m - b.
func (m *Matrix) Sub(b *Matrix) (*Matrix, error) {
	if m.rows != b.rows || m.cols != b.cols {
		return nil, fmt.Errorf("linalg: dimension mismatch %dx%d - %dx%d", m.rows, m.cols, b.rows, b.cols)
	}
	out := m.Clone()
	for i := range out.data {
		out.data[i] -= b.data[i]
	}
	return out, nil
}

// Scale returns s*m.
func (m *Matrix) Scale(s float64) *Matrix {
	out := m.Clone()
	for i := range out.data {
		out.data[i] *= s
	}
	return out
}

// MaxAbs returns the largest absolute entry of m.
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Dot returns the inner product of two equal-length slices.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, ai := range a {
		s += ai * b[i]
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
			ssq = 1 + ssq*r*r
			scale = ax
		} else {
			r := ax / scale
			ssq += r * r
		}
	}
	if scale == 0 {
		return 0
	}
	return scale * math.Sqrt(ssq)
}
