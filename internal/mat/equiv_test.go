package mat

import (
	"fmt"
	"math"
	"testing"

	"arams/internal/rng"
)

// bitsEqual reports whether a and b agree in shape and in every bit of
// every element (so −0 ≠ +0 and NaN payloads count).
func bitsEqual(a, b *Matrix) bool {
	if a.RowsN != b.RowsN || a.ColsN != b.ColsN {
		return false
	}
	for i := 0; i < a.RowsN; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if math.Float64bits(ra[j]) != math.Float64bits(rb[j]) {
				return false
			}
		}
	}
	return true
}

func floatsBitsEqual(a, b []float64) bool {
	return bitsEqual(&Matrix{RowsN: 1, ColsN: len(a), Stride: len(a), Data: a},
		&Matrix{RowsN: 1, ColsN: len(b), Stride: len(b), Data: b})
}

// eigCases are the Gram matrices the rotation's eigensolver has to get
// right: the steady-state FD shape, the conditioning the Gram trick
// squares, and the degenerate buffers a detector stream produces.
func eigCases() map[string]*Matrix {
	g := rng.New(301)
	scaled := func(n, d int, scale func(i int) float64) *Matrix {
		b := RandGaussian(n, d, g)
		for i := 0; i < n; i++ {
			s := scale(i)
			row := b.Row(i)
			for j := range row {
				row[j] *= s
			}
		}
		return Gram(b)
	}
	constant := New(9, 40)
	for i := range constant.Data {
		constant.Data[i] = 1
	}
	lowRank := Mul(RandGaussian(10, 3, g), RandGaussian(3, 64, g))
	cases := map[string]*Matrix{
		"fd_shaped_50":   Gram(fdShapedBuffer(25, 512, g)),
		"fd_shaped_24":   Gram(fdShapedBuffer(12, 96, g)),
		"cond_1e12":      scaled(20, 200, func(i int) float64 { return math.Pow(10, -6*float64(i)/19) }),
		"rank_deficient": Gram(lowRank),
		"constant":       Gram(constant),
		"all_zero":       New(6, 6),
		"n1":             Gram(RandGaussian(1, 8, g)),
		"n2":             Gram(RandGaussian(2, 8, g)),
		"odd_7":          Gram(RandGaussian(7, 30, g)),
		"odd_51":         Gram(RandGaussian(51, 60, g)),
		"wide_97":        Gram(RandGaussian(97, 120, g)),
		"wide_96":        scaled(96, 110, func(i int) float64 { return 1 / float64(i+1) }),
	}
	return cases
}

// eigTolC is the one constant of the eigensolver's accuracy tests:
// every bound below is eigTolC·n·ε, in units of the largest |λ| for
// eigenvalues, residuals and reconstructions and of 1 for
// orthogonality. Tridiagonal QL is backward stable, so this — an
// absolute error in ‖A‖, which is what the FD guarantee is stated in —
// is the promise; the measured worst over the cases here is 1.3.
const eigTolC = 4

// checkEigenpairs holds (vals, v) to the promise for a: values
// descending, VᵀV = I, every pair's residual ‖a·vᵢ − λᵢvᵢ‖₂ within
// tolerance, and every vector's largest element positive (the pinned
// sign). It returns the scale the tolerance is relative to.
func checkEigenpairs(t *testing.T, name string, a *Matrix, vals []float64, v *Matrix) (tol, lam float64) {
	t.Helper()
	n := a.RowsN
	if len(vals) != n || v.RowsN != n || v.ColsN != n {
		t.Fatalf("%s: got %d values and a %dx%d V for order %d", name, len(vals), v.RowsN, v.ColsN, n)
	}
	if n == 0 {
		return 0, 0
	}
	tol = eigTolC * float64(n) * 0x1p-52
	lam = math.Max(math.Abs(vals[0]), math.Abs(vals[n-1]))
	for i := 1; i < n; i++ {
		if !(vals[i] <= vals[i-1]) {
			t.Errorf("%s: eigenvalues not descending at %d: %v", name, i, vals)
		}
	}
	if vtv := Mul(v.T(), v); !vtv.Equal(Eye(n), tol) {
		t.Errorf("%s: |VᵀV − I| exceeds %.3g", name, tol)
	}
	av := Mul(a, v)
	for j := 0; j < n; j++ {
		var r2, big float64
		for i := 0; i < n; i++ {
			r := av.At(i, j) - vals[j]*v.At(i, j)
			r2 += r * r
			if math.Abs(v.At(i, j)) > math.Abs(big) {
				big = v.At(i, j)
			}
		}
		if !(big > 0) {
			t.Errorf("%s: eigenvector %d has its largest element %g ≤ 0", name, j, big)
		}
		if r := math.Sqrt(r2); !(r <= tol*lam) {
			t.Errorf("%s: pair %d residual %.3g exceeds %.3g", name, j, r, tol*lam)
		}
	}
	return tol, lam
}

// TestEigSymWithinRoundoffOfJacobi measures EigSym against the cyclic
// Jacobi solver it replaced, on the orders either side of the old
// parallel threshold (96, 97) and on one past it.
func TestEigSymWithinRoundoffOfJacobi(t *testing.T) {
	cases := eigCases()
	cases["gram_128"] = Gram(RandGaussian(128, 150, rng.New(303)))
	for name, a := range cases {
		vals, v := EigSym(a)
		tol, lam := checkEigenpairs(t, name, a, vals, v)
		ref, _ := RefEigSym(a)
		for i := range ref {
			if d := math.Abs(vals[i] - ref[i]); !(d <= tol*lam) {
				t.Errorf("%s: λ[%d] = %g, Jacobi has %g: apart by %.3g > %.3g", name, i, vals[i], ref[i], d, tol*lam)
			}
		}
	}
}

// TestEigSymBoundedAndTotal: every input returns — without a panic and
// within eigMaxIter iterations per eigenvalue, where the textbook QL
// loop either walks off the end of its arrays or never stops — and
// every finite one returns its eigenpairs, exactly where no arithmetic
// is needed to find them.
func TestEigSymBoundedAndTotal(t *testing.T) {
	grams := eigCases()
	poisoned := func(v float64) *Matrix {
		a := Gram(RandGaussian(50, 60, rng.New(304)))
		a.Set(7, 31, v)
		a.Set(31, 7, v)
		return a
	}
	ones := New(6, 6)
	for i := range ones.Data {
		ones.Data[i] = 1
	}
	// The second-difference matrix: λₖ = 2 − 2cos(kπ/(n+1)).
	secondDiff, secondDiffVals := New(8, 8), make([]float64, 8)
	for i := 0; i < 8; i++ {
		secondDiff.Set(i, i, 2)
		if i > 0 {
			secondDiff.Set(i, i-1, -1)
			secondDiff.Set(i-1, i, -1)
		}
		secondDiffVals[i] = 2 - 2*math.Cos(float64(8-i)*math.Pi/9)
	}
	for _, tc := range []struct {
		name  string
		a     *Matrix
		want  []float64 // nil: only the eigenpair check
		exact bool
	}{
		{"nan", poisoned(math.NaN()), nil, false},
		{"inf", poisoned(math.Inf(1)), nil, false},
		{"all_zero", New(5, 5), []float64{0, 0, 0, 0, 0}, true},
		{"n0", New(0, 0), []float64{}, true},
		{"n1", FromRows([][]float64{{-3}}), []float64{-3}, true},
		{"n2", FromRows([][]float64{{2, 1}, {1, 2}}), []float64{3, 1}, false},
		{"identity", Eye(7), []float64{1, 1, 1, 1, 1, 1, 1}, true},
		{"constant", ones, []float64{6, 0, 0, 0, 0, 0}, false},
		{"diagonal", diag([]float64{5, -1, 3, 0}), []float64{5, 3, 0, -1}, true},
		{"tridiagonal", secondDiff, secondDiffVals, false},
		{"cond_1e12", grams["cond_1e12"], nil, false},
		{"rank_deficient", grams["rank_deficient"], nil, false},
	} {
		vals, v := EigSym(tc.a)
		if tc.a.HasNaN() || math.IsInf(tc.a.MaxAbs(), 0) {
			// Nothing is promised about the values, only the return.
			if len(vals) != tc.a.RowsN {
				t.Errorf("%s: %d values for order %d", tc.name, len(vals), tc.a.RowsN)
			}
			continue
		}
		tol, lam := checkEigenpairs(t, tc.name, tc.a, vals, v)
		for i, w := range tc.want {
			if d := math.Abs(vals[i] - w); d > tol*lam || (tc.exact && d != 0) {
				t.Errorf("%s: λ[%d] = %g, want %g (exact: %v)", tc.name, i, vals[i], w, tc.exact)
			}
		}
	}
	// The QL loop itself, on a tridiagonal matrix no test can pass:
	// it must give up, not index past e or spin, and count the give-up.
	d, e := make([]float64, 50), make([]float64, 50)
	for i := range d {
		d[i], e[i] = math.NaN(), math.NaN()
	}
	before := obsEigGiveUps.Value()
	tridiagQL(d, e, Eye(50))
	if n := obsEigGiveUps.Value() - before; n != 1 {
		t.Errorf("a NaN tridiagonal counted %v give-ups, want 1", n)
	}
}

// gradedGram is the Gram matrix of an m×2m matrix with random singular
// vectors and the super-exponential spectrum σᵢ = exp(−(i/τ)^1.5) of
// Fig. 1: its eigenvalues σᵢ² fall past ε·σ₀² well before the last, the
// graded, numerically rank-deficient shape an FD buffer of a stream of
// rank far below ℓ has.
func gradedGram(m int, tau float64, seed uint64) *Matrix {
	g := rng.New(seed)
	u := RandOrthonormalCols(m, m, g)
	v := RandOrthonormalCols(2*m, m, g)
	for j := 0; j < m; j++ {
		s := math.Exp(-math.Pow(float64(j)/tau, 1.5))
		for i := 0; i < m; i++ {
			u.Set(i, j, u.At(i, j)*s)
		}
	}
	return Gram(Mul(u, v.T()))
}

// TestEigSymGradedGramConverges: on a graded Gram the relative split
// test alone never isolates some small eigenvalue — QL used to return
// there, every eigenvalue not yet reached unconverged (λ₁ = 0.96 against
// Jacobi's 1 on the first case). EigSym holds every eigenpair to the
// promise and to the Jacobi solver, and counts no give-up.
func TestEigSymGradedGramConverges(t *testing.T) {
	for _, tc := range []struct {
		m    int
		tau  float64
		seed uint64
	}{{60, 8, 3}, {80, 12, 1}, {120, 8, 2}} {
		name := fmt.Sprintf("m%d_tau%g_seed%d", tc.m, tc.tau, tc.seed)
		a := gradedGram(tc.m, tc.tau, tc.seed)
		before := obsEigGiveUps.Value()
		vals, v := EigSym(a)
		if n := obsEigGiveUps.Value() - before; n != 0 {
			t.Errorf("%s: %v give-ups on a finite matrix", name, n)
		}
		tol, lam := checkEigenpairs(t, name, a, vals, v)
		ref, _ := RefEigSym(a)
		for i := range ref {
			if d := math.Abs(vals[i] - ref[i]); !(d <= tol*lam) {
				t.Errorf("%s: λ[%d] = %g, Jacobi has %g: apart by %.3g > %.3g", name, i, vals[i], ref[i], d, tol*lam)
			}
		}
	}
}

// TestSVDGramToLeadingRows checks what vt's row count selects: an
// r-row call returns every singular value and exactly the leading r
// rows of the full call, bit for bit — including above the parallel
// threshold, where MulTo splits the r rows differently.
func TestSVDGramToLeadingRows(t *testing.T) {
	g := rng.New(302)
	for _, sh := range []struct{ m, d, r int }{
		{50, 4096, 25}, {24, 96, 12}, {7, 33, 1}, {9, 40, 9}, {51, 300, 25},
	} {
		a := fdShapedBuffer((sh.m+1)/2, sh.d, g).Rows(0, sh.m)
		full := New(sh.m, sh.d)
		sigmaFull := SVDGramTo(a, nil, full)
		lead := New(sh.r, sh.d)
		sigmaLead := SVDGramTo(a, nil, lead)
		name := fmt.Sprintf("%dx%d r=%d", sh.m, sh.d, sh.r)
		if len(sigmaLead) != sh.m || !floatsBitsEqual(sigmaLead, sigmaFull) {
			t.Errorf("%s: singular values differ from the full call", name)
		}
		if !bitsEqual(lead, full.Rows(0, sh.r)) {
			t.Errorf("%s: rows differ from the leading rows of the full call", name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("SVDGramTo accepted more vt rows than the buffer has")
		}
	}()
	SVDGramTo(New(3, 5), nil, New(4, 5))
}
