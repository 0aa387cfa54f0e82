package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("got %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("element (%d,%d) = %g, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewMatrixPanicsOnBadDims(t *testing.T) {
	for _, dims := range [][2]int{{0, 1}, {1, 0}, {-1, 2}, {2, -3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMatrix(%d,%d) did not panic", dims[0], dims[1])
				}
			}()
			NewMatrix(dims[0], dims[1])
		}()
	}
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(2, 1) != 6 || m.At(0, 0) != 1 {
		t.Fatalf("unexpected contents: %v", m)
	}
}

func TestFromRowsRagged(t *testing.T) {
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged rows accepted")
	}
	if _, err := FromRows(nil); err == nil {
		t.Fatal("empty rows accepted")
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(1, 0, 42)
	if m.At(1, 0) != 42 {
		t.Fatalf("At after Set = %g", m.At(1, 0))
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	m := NewMatrix(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range At did not panic")
		}
	}()
	m.At(2, 0)
}

func TestTranspose(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("transpose dims %dx%d", tr.Rows(), tr.Cols())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMul(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	c, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("product (%d,%d) = %g, want %g", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMulDimensionMismatch(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(2, 3)
	if _, err := a.Mul(b); err == nil {
		t.Fatal("mismatched product accepted")
	}
}

func TestMulIdentity(t *testing.T) {
	a, _ := FromRows([][]float64{{2, -1, 0.5}, {3, 7, -2}, {0, 1, 4}})
	id := Identity(3)
	left, _ := id.Mul(a)
	right, _ := a.Mul(id)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if left.At(i, j) != a.At(i, j) || right.At(i, j) != a.At(i, j) {
				t.Fatalf("identity product differs at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulVec(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	v, err := a.MulVec([]float64{1, 0, -1})
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != -2 || v[1] != -2 {
		t.Fatalf("MulVec = %v", v)
	}
	if _, err := a.MulVec([]float64{1}); err == nil {
		t.Fatal("bad vector length accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}})
	c := a.Clone()
	c.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestNorm2(t *testing.T) {
	if got := Norm2([]float64{3, 4}); !almostEqual(got, 5, 1e-14) {
		t.Fatalf("Norm2(3,4) = %g", got)
	}
	if got := Norm2(nil); got != 0 {
		t.Fatalf("Norm2(nil) = %g", got)
	}
	// Large entries must not overflow.
	big := 1e300
	if got := Norm2([]float64{big, big}); math.IsInf(got, 0) {
		t.Fatal("Norm2 overflowed")
	}
}

func TestDot(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("Dot wrong")
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ for random small matrices.
func TestTransposeProductProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := seededRand(seed)
		a := randomMatrix(r, 4, 3)
		b := randomMatrix(r, 3, 5)
		ab, err := a.Mul(b)
		if err != nil {
			return false
		}
		lhs := ab.T()
		rhs, err := b.T().Mul(a.T())
		if err != nil {
			return false
		}
		diff, err := lhs.Sub(rhs)
		if err != nil {
			return false
		}
		return diff.MaxAbs() < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Norm2(v)² ≈ Dot(v, v).
func TestNorm2DotProperty(t *testing.T) {
	f := func(vals []float64) bool {
		// Filter non-finite and huge inputs.
		v := make([]float64, 0, len(vals))
		for _, x := range vals {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				continue
			}
			v = append(v, x)
		}
		n := Norm2(v)
		return almostEqual(n*n, Dot(v, v), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// --- shared helpers for the package tests ---

type xorshift struct{ s uint64 }

func seededRand(seed int64) *xorshift {
	return &xorshift{s: uint64(seed)*2862933555777941757 + 3037000493}
}

func (x *xorshift) float() float64 {
	x.s ^= x.s << 13
	x.s ^= x.s >> 7
	x.s ^= x.s << 17
	return float64(int64(x.s%2000001)-1000000) / 1000.0
}

func randomMatrix(r *xorshift, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, r.float())
		}
	}
	return m
}
