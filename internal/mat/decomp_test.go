package mat

import (
	"math"
	"testing"

	"arams/internal/rng"
)

func TestQRReconstruction(t *testing.T) {
	g := rng.New(10)
	for _, dims := range [][2]int{{1, 1}, {5, 5}, {20, 7}, {100, 30}} {
		r, c := dims[0], dims[1]
		a := RandGaussian(r, c, g)
		q, rr := QR(a)
		// Q has orthonormal columns.
		if qtq := Mul(q.T(), q); !qtq.Equal(Eye(c), 1e-10) {
			t.Fatalf("%v: QᵀQ != I", dims)
		}
		// R upper triangular.
		for i := 0; i < c; i++ {
			for j := 0; j < i; j++ {
				if rr.At(i, j) != 0 {
					t.Fatalf("%v: R not upper triangular", dims)
				}
			}
		}
		// A = QR.
		if !Mul(q, rr).Equal(a, 1e-10) {
			t.Fatalf("%v: QR != A", dims)
		}
	}
}

func TestQRRankDeficient(t *testing.T) {
	// Two identical columns.
	a := FromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	q, rr := QR(a)
	if !Mul(q, rr).Equal(a, 1e-12) {
		t.Fatal("QR of rank-deficient matrix does not reconstruct")
	}
}

func TestQRZeroMatrix(t *testing.T) {
	a := New(4, 2)
	q, rr := QR(a)
	if !Mul(q, rr).Equal(a, 1e-14) {
		t.Fatal("QR of zero matrix broken")
	}
}

func TestEigSymKnown(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	a := FromRows([][]float64{{2, 1}, {1, 2}})
	vals, v := EigSym(a)
	if math.Abs(vals[0]-3) > 1e-12 || math.Abs(vals[1]-1) > 1e-12 {
		t.Fatalf("eigenvalues = %v, want [3 1]", vals)
	}
	// Check A v = λ v for each column.
	for j := 0; j < 2; j++ {
		col := []float64{v.At(0, j), v.At(1, j)}
		av := MulVec(a, col)
		for i := range av {
			if math.Abs(av[i]-vals[j]*col[i]) > 1e-12 {
				t.Fatalf("eigenpair %d residual too large", j)
			}
		}
	}
}

func TestEigSymRandom(t *testing.T) {
	g := rng.New(11)
	for _, n := range []int{1, 2, 3, 10, 40} {
		b := RandGaussian(n, n, g)
		a := Mul(b, b.T()) // symmetric PSD
		vals, v := EigSym(a)
		// Descending and non-negative (up to roundoff).
		for i := 1; i < n; i++ {
			if vals[i] > vals[i-1]+1e-10 {
				t.Fatalf("n=%d: eigenvalues not descending: %v", n, vals)
			}
		}
		// V orthonormal.
		if !Mul(v.T(), v).Equal(Eye(n), 1e-9) {
			t.Fatalf("n=%d: V not orthonormal", n)
		}
		// Reconstruction A = V Λ Vᵀ.
		rec := Mul(Mul(v, diag(vals)), v.T())
		if !rec.Equal(a, 1e-8*math.Max(1, a.MaxAbs())) {
			t.Fatalf("n=%d: eigen reconstruction failed", n)
		}
	}
}

func TestEigSymZero(t *testing.T) {
	vals, v := EigSym(New(3, 3))
	for _, lam := range vals {
		if lam != 0 {
			t.Fatal("zero matrix eigenvalues nonzero")
		}
	}
	if !Mul(v.T(), v).Equal(Eye(3), 1e-12) {
		t.Fatal("zero matrix eigenvectors not orthonormal")
	}
}

func checkSVD(t *testing.T, a, u *Matrix, s []float64, vt *Matrix, tol float64) {
	t.Helper()
	k := len(s)
	// Singular values descending and non-negative.
	for i := 0; i < k; i++ {
		if s[i] < 0 {
			t.Fatalf("negative singular value %v", s[i])
		}
		if i > 0 && s[i] > s[i-1]+1e-10 {
			t.Fatalf("singular values not sorted: %v", s)
		}
	}
	// Reconstruction.
	us := u.Clone()
	for j := 0; j < k; j++ {
		for i := 0; i < u.RowsN; i++ {
			us.Set(i, j, u.At(i, j)*s[j])
		}
	}
	if rec := Mul(us, vt); !rec.Equal(a, tol) {
		t.Fatalf("SVD reconstruction error too large")
	}
}

func TestSVDTall(t *testing.T) {
	g := rng.New(12)
	a := RandGaussian(30, 8, g)
	u, s, vt := SVD(a)
	checkSVD(t, a, u, s, vt, 1e-9)
	if !Mul(u.T(), u).Equal(Eye(8), 1e-9) {
		t.Fatal("U columns not orthonormal")
	}
	if !Mul(vt, vt.T()).Equal(Eye(8), 1e-9) {
		t.Fatal("Vᵀ rows not orthonormal")
	}
}

func TestSVDWide(t *testing.T) {
	g := rng.New(13)
	a := RandGaussian(6, 40, g)
	u, s, vt := SVD(a)
	checkSVD(t, a, u, s, vt, 1e-9)
	if u.RowsN != 6 || u.ColsN != 6 || vt.RowsN != 6 || vt.ColsN != 40 {
		t.Fatalf("thin SVD shapes wrong: U %d×%d, Vt %d×%d", u.RowsN, u.ColsN, vt.RowsN, vt.ColsN)
	}
}

func TestSVDKnownValues(t *testing.T) {
	// diag(3, 2) embedded in 2×2: singular values are 3 and 2.
	a := FromRows([][]float64{{3, 0}, {0, 2}})
	_, s, _ := SVD(a)
	if math.Abs(s[0]-3) > 1e-12 || math.Abs(s[1]-2) > 1e-12 {
		t.Fatalf("singular values = %v, want [3 2]", s)
	}
}

func TestSVDRankDeficient(t *testing.T) {
	// Rank-1 matrix.
	a := FromRows([][]float64{{1, 2, 3}, {2, 4, 6}, {3, 6, 9}})
	u, s, vt := SVD(a)
	checkSVD(t, a, u, s, vt, 1e-9)
	if s[1] > 1e-9 || s[2] > 1e-9 {
		t.Fatalf("rank-1 matrix has extra singular values: %v", s)
	}
}

func TestSVDZeroMatrix(t *testing.T) {
	a := New(3, 5)
	u, s, vt := SVD(a)
	for _, v := range s {
		if v != 0 {
			t.Fatalf("zero matrix singular values: %v", s)
		}
	}
	checkSVD(t, a, u, s, vt, 1e-14)
}

func TestSVDGramMatchesJacobi(t *testing.T) {
	g := rng.New(14)
	for _, dims := range [][2]int{{4, 50}, {10, 200}, {16, 1000}} {
		a := RandGaussian(dims[0], dims[1], g)
		_, sJ, _ := SVD(a)
		uG, sG, vtG := SVDGram(a)
		for i := range sJ {
			rel := math.Abs(sJ[i]-sG[i]) / math.Max(sJ[0], 1e-300)
			if rel > 1e-7 {
				t.Fatalf("%v: singular value %d: jacobi %v vs gram %v", dims, i, sJ[i], sG[i])
			}
		}
		checkSVD(t, a, uG, sG, vtG, 1e-7*sJ[0]*float64(dims[1]))
		// Vᵀ rows orthonormal where σ > 0.
		vvt := Mul(vtG, vtG.T())
		if !vvt.Equal(Eye(dims[0]), 1e-7) {
			t.Fatalf("%v: Gram Vᵀ rows not orthonormal", dims)
		}
	}
}

func TestSVDGramRankDeficient(t *testing.T) {
	g := rng.New(15)
	// 6×100 matrix of rank 3: duplicate rows.
	base := RandGaussian(3, 100, g)
	a := New(6, 100)
	for i := 0; i < 3; i++ {
		copy(a.Row(i), base.Row(i))
		copy(a.Row(i+3), base.Row(i))
	}
	u, s, vt := SVDGram(a)
	if s[3] > 1e-6*s[0] {
		t.Fatalf("rank-3 matrix: σ₄ = %v not small", s[3])
	}
	checkSVD(t, a, u, s, vt, 1e-6*s[0]*100)
	// Zero-σ rows of vt must be exactly zero, not garbage.
	for i := 3; i < 6; i++ {
		if Norm2(vt.Row(i)) > 1e-6 {
			t.Fatalf("vt row %d for zero σ is nonzero", i)
		}
	}
}

// diag builds a square diagonal matrix from v.
func diag(v []float64) *Matrix {
	m := New(len(v), len(v))
	for i, x := range v {
		m.Set(i, i, x)
	}
	return m
}
