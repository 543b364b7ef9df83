package mat

import (
	"math"
	"testing"
	"testing/quick"

	"arams/internal/rng"
)

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if r, c := m.Dims(); r != 3 || c != 4 {
		t.Fatalf("Dims = %d×%d", r, c)
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("New matrix not zeroed")
		}
	}
}

func TestAtSetRow(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatal("At/Set roundtrip failed")
	}
	row := m.Row(1)
	row[0] = 5
	if m.At(1, 0) != 5 {
		t.Fatal("Row does not share storage")
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.At(2, 1) != 6 || m.At(0, 0) != 1 {
		t.Fatalf("FromRows wrong contents: %v", m.Data)
	}
	if got := FromRows(nil); got.RowsN != 0 || got.ColsN != 0 {
		t.Fatal("FromRows(nil) should be empty")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged FromRows did not panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestRowsView(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}})
	v := m.Rows(1, 3)
	if v.RowsN != 2 || v.At(0, 0) != 3 || v.At(1, 1) != 6 {
		t.Fatalf("Rows view wrong: %+v", v)
	}
	v.Set(0, 0, 99)
	if m.At(1, 0) != 99 {
		t.Fatal("Rows view does not alias parent")
	}
}

// TestRowsViewEmptyRange: an empty row range is a 0×Cols view at any
// stride and at every position, the end included. A strided view's data
// stops Cols past its last row's start, so the empty range used to slice
// past it (on a 4×6 matrix's columns 1..3, Rows(2, 2) asked for [12:8]).
func TestRowsViewEmptyRange(t *testing.T) {
	m := New(4, 6)
	cols := m.colView(1, 3)
	for _, tc := range []struct {
		name string
		src  *Matrix
	}{
		{"compact", m},
		{"strided", &cols},
		{"rows of strided", cols.Rows(1, 3)},
	} {
		for i := 0; i <= tc.src.RowsN; i++ {
			v := tc.src.Rows(i, i)
			if v.RowsN != 0 || v.ColsN != tc.src.ColsN || len(v.Data) != 0 {
				t.Fatalf("%s: Rows(%d, %d) is %dx%d over %d values, want 0x%d over none",
					tc.name, i, i, v.RowsN, v.ColsN, len(v.Data), tc.src.ColsN)
			}
		}
	}
}

// TestClone covers both copy paths: the single block copy of a compact
// matrix (a Rows view included, whose Data may run past its last row)
// and the row loop of a view whose stride is wider than its rows. Either
// way the clone is compact, equal, and shares no storage.
func TestClone(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	strided := &Matrix{RowsN: 3, ColsN: 2, Stride: 3, Data: m.Data[1:]} // columns 1..2
	for _, tc := range []struct {
		name string
		src  *Matrix
		want [][]float64
	}{
		{"compact", m, [][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}},
		{"rows view", m.Rows(1, 3), [][]float64{{4, 5, 6}, {7, 8, 9}}},
		{"strided view", strided, [][]float64{{2, 3}, {5, 6}, {8, 9}}},
		{"empty", New(0, 4), nil},
	} {
		c := tc.src.Clone()
		if c.RowsN != tc.src.RowsN || c.ColsN != tc.src.ColsN || c.Stride != c.ColsN || len(c.Data) != c.RowsN*c.ColsN {
			t.Fatalf("%s: clone is %dx%d stride %d over %d values", tc.name, c.RowsN, c.ColsN, c.Stride, len(c.Data))
		}
		for i, row := range tc.want {
			for j, v := range row {
				if c.At(i, j) != v {
					t.Fatalf("%s: clone[%d][%d] = %v, want %v", tc.name, i, j, c.At(i, j), v)
				}
			}
		}
		if c.RowsN > 0 {
			c.Set(0, 0, -1)
			if tc.src.At(0, 0) == -1 {
				t.Fatalf("%s: clone shares storage with its source", tc.name)
			}
		}
	}
}

func TestTranspose(t *testing.T) {
	g := rng.New(1)
	m := RandGaussian(37, 89, g)
	mt := m.T()
	for i := 0; i < 37; i++ {
		for j := 0; j < 89; j++ {
			if m.At(i, j) != mt.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
	if !m.Equal(mt.T(), 0) {
		t.Fatal("double transpose is not identity")
	}
}

func TestAddSubScale(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := a.Clone()
	c.Add(b)
	if c.At(1, 1) != 12 {
		t.Fatal("Add wrong")
	}
	c.Sub(b)
	if !c.Equal(a, 1e-15) {
		t.Fatal("Add then Sub is not identity")
	}
	c.Scale(3)
	if c.At(0, 1) != 6 {
		t.Fatal("Scale wrong")
	}
}

func TestFrobenius(t *testing.T) {
	m := FromRows([][]float64{{3, 4}})
	if got := m.FrobeniusNorm(); math.Abs(got-5) > 1e-14 {
		t.Fatalf("FrobeniusNorm = %v, want 5", got)
	}
	if got := m.FrobeniusNormSq(); math.Abs(got-25) > 1e-12 {
		t.Fatalf("FrobeniusNormSq = %v, want 25", got)
	}
}

func TestMulAgainstNaive(t *testing.T) {
	g := rng.New(2)
	for _, dims := range [][3]int{{1, 1, 1}, {3, 4, 5}, {17, 9, 23}, {64, 64, 64}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := RandGaussian(m, k, g)
		b := RandGaussian(k, n, g)
		got := Mul(a, b)
		want := New(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var s float64
				for kk := 0; kk < k; kk++ {
					s += a.At(i, kk) * b.At(kk, j)
				}
				want.Set(i, j, s)
			}
		}
		if !got.Equal(want, 1e-10) {
			t.Fatalf("Mul mismatch for %v", dims)
		}
	}
}

func TestMulParallelPath(t *testing.T) {
	g := rng.New(3)
	// Large enough to trigger the parallel path.
	a := RandGaussian(128, 80, g)
	b := RandGaussian(80, 100, g)
	got := Mul(a, b)
	small := New(128, 100)
	RefMulTo(small, a, b)
	if !got.Equal(small, 1e-12) {
		t.Fatal("parallel Mul disagrees with reference kernel")
	}
}

func TestMulABt(t *testing.T) {
	g := rng.New(4)
	a := RandGaussian(13, 40, g)
	b := RandGaussian(21, 40, g)
	got := MulABt(a, b)
	want := Mul(a, b.T())
	if !got.Equal(want, 1e-11) {
		t.Fatal("MulABt disagrees with Mul(a, b.T())")
	}
}

func TestGramSymmetric(t *testing.T) {
	g := rng.New(5)
	a := RandGaussian(9, 300, g)
	got := Gram(a)
	want := Mul(a, a.T())
	if !got.Equal(want, 1e-10) {
		t.Fatal("Gram disagrees with a*aᵀ")
	}
	for i := 0; i < 9; i++ {
		for j := 0; j < 9; j++ {
			if got.At(i, j) != got.At(j, i) {
				t.Fatal("Gram not exactly symmetric")
			}
		}
	}
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	x := []float64{1, 0, -1}
	got := MulVec(a, x)
	if got[0] != -2 || got[1] != -2 {
		t.Fatalf("MulVec = %v", got)
	}
	gotT := MulTVec(a, []float64{1, 1})
	want := []float64{5, 7, 9}
	for i := range want {
		if math.Abs(gotT[i]-want[i]) > 1e-14 {
			t.Fatalf("MulTVec = %v", gotT)
		}
	}
}

func TestDotNorm(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{5, 4, 3, 2, 1}
	if got := Dot(x, y); got != 35 {
		t.Fatalf("Dot = %v", got)
	}
	if got := Norm2([]float64{3, 4}); math.Abs(got-5) > 1e-15 {
		t.Fatalf("Norm2 = %v", got)
	}
	if got := Norm2(nil); got != 0 {
		t.Fatalf("Norm2(nil) = %v", got)
	}
	// Overflow safety.
	if got := Norm2([]float64{1e200, 1e200}); math.IsInf(got, 0) {
		t.Fatal("Norm2 overflowed")
	}
}

func TestNorm2MatchesSqrtNorm2Sq(t *testing.T) {
	f := func(xs []float64) bool {
		for i, v := range xs {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				xs[i] = 1
			}
		}
		a := Norm2(xs)
		b := math.Sqrt(Norm2Sq(xs))
		if b == 0 {
			return a == 0
		}
		return math.Abs(a-b)/b < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEyeDiag(t *testing.T) {
	if !Eye(3).Equal(diag([]float64{1, 1, 1}), 0) {
		t.Fatal("Eye(3) is not the unit diagonal")
	}
}

func TestHasNaN(t *testing.T) {
	m := New(2, 2)
	if m.HasNaN() {
		t.Fatal("zero matrix reported NaN")
	}
	m.Set(1, 1, math.NaN())
	if !m.HasNaN() {
		t.Fatal("NaN not detected")
	}
	m.Set(1, 1, math.Inf(1))
	if !m.HasNaN() {
		t.Fatal("Inf not detected")
	}
}

func TestRandOrthonormalCols(t *testing.T) {
	g := rng.New(6)
	q := RandOrthonormalCols(50, 20, g)
	qtq := Mul(q.T(), q)
	if !qtq.Equal(Eye(20), 1e-10) {
		t.Fatal("columns not orthonormal")
	}
}

func TestMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	Mul(New(2, 3), New(4, 2))
}

// Gram returns a*aᵀ in a new matrix: GramTo for tests that want the
// product by value.
func Gram(a *Matrix) *Matrix {
	out := New(a.RowsN, a.RowsN)
	GramTo(out, a)
	return out
}
