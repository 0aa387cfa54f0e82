package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Matrix helpers the tests build inputs and check the QR solve with;
// the fit itself needs none of them.

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

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
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
