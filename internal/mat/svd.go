package mat

import (
	"math"
	"sort"
	"time"
)

// svdMaxSweeps bounds the one-sided Jacobi iteration.
const svdMaxSweeps = 60

// svdParallelMinN is the minimum column count before the one-sided
// Jacobi sweep fans its disjoint column pairs across the worker pool.
const svdParallelMinN = 48

// SVD computes the thin singular value decomposition a = u*diag(s)*vt
// of an m×n matrix using the one-sided Jacobi method. With k = min(m,n),
// u is m×k with orthonormal columns, s has k non-negative entries in
// descending order, and vt is k×n with orthonormal rows.
//
// One-sided Jacobi applies plane rotations to pairs of columns until all
// columns are mutually orthogonal; it is simple, backward stable, and
// achieves high relative accuracy, which matters because Frequent
// Directions subtracts the smallest retained singular value. Column
// pairs within a round-robin round are disjoint, so large
// decompositions rotate them concurrently on the shared pool.
func SVD(a *Matrix) (u *Matrix, s []float64, vt *Matrix) {
	start := time.Now()
	defer observeSince(obsKernelSVD, start)
	m, n := a.Dims()
	if m >= n {
		return svdTall(a)
	}
	// Wide matrix: decompose the transpose and swap factors.
	ut, st, vtt := svdTall(a.T())
	return vtt.T(), st, ut.T()
}

// svdTall runs one-sided Jacobi on an m×n matrix with m >= n.
func svdTall(a *Matrix) (u *Matrix, s []float64, vt *Matrix) {
	m, n := a.Dims()
	w := a.Clone()
	v := Eye(n)
	if n == 0 {
		return New(m, 0), nil, New(0, 0)
	}

	if n >= svdParallelMinN && m*n >= parallelThreshold && Workers() > 1 {
		svdSweepsParallel(w, v)
	} else {
		svdSweepsSerial(w, v)
	}

	// Column norms are the singular values; normalized columns form U.
	s = make([]float64, n)
	for j := 0; j < n; j++ {
		var norm float64
		for i := 0; i < m; i++ {
			norm += w.At(i, j) * w.At(i, j)
		}
		s[j] = math.Sqrt(norm)
	}
	// Sort descending.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return s[idx[i]] > s[idx[j]] })

	u = New(m, n)
	vt = New(n, n)
	sorted := make([]float64, n)
	maxS := 0.0
	for _, j := range idx {
		if s[j] > maxS {
			maxS = s[j]
		}
	}
	for newJ, oldJ := range idx {
		sorted[newJ] = s[oldJ]
		if s[oldJ] > 1e-300 && s[oldJ] > 1e-15*maxS {
			inv := 1 / s[oldJ]
			for i := 0; i < m; i++ {
				u.Set(i, newJ, w.At(i, oldJ)*inv)
			}
		}
		for i := 0; i < n; i++ {
			vt.Set(newJ, i, v.At(i, oldJ))
		}
	}
	return u, sorted, vt
}

// svdRotatePair orthogonalizes columns p and q of w (accumulating the
// rotation into v) and reports whether it rotated. It touches only
// those two columns, which is what makes disjoint pairs parallel-safe.
func svdRotatePair(w, v *Matrix, p, q int) bool {
	m, n := w.Dims()
	var alpha, beta, gamma float64 // ‖p‖², ‖q‖², <p,q>
	for i := 0; i < m; i++ {
		wp := w.At(i, p)
		wq := w.At(i, q)
		alpha += wp * wp
		beta += wq * wq
		gamma += wp * wq
	}
	if gamma == 0 {
		return false
	}
	// Orthogonal enough relative to the column scales?
	if math.Abs(gamma) <= 1e-15*math.Sqrt(alpha*beta) {
		return false
	}
	zeta := (beta - alpha) / (2 * gamma)
	var t float64
	if zeta >= 0 {
		t = 1 / (zeta + math.Sqrt(1+zeta*zeta))
	} else {
		t = -1 / (-zeta + math.Sqrt(1+zeta*zeta))
	}
	c := 1 / math.Sqrt(1+t*t)
	sn := t * c
	for i := 0; i < m; i++ {
		wp := w.At(i, p)
		wq := w.At(i, q)
		w.Set(i, p, c*wp-sn*wq)
		w.Set(i, q, sn*wp+c*wq)
	}
	for i := 0; i < n; i++ {
		vp := v.At(i, p)
		vq := v.At(i, q)
		v.Set(i, p, c*vp-sn*vq)
		v.Set(i, q, sn*vp+c*vq)
	}
	return true
}

// svdSweepsSerial is the classic cyclic pair ordering.
func svdSweepsSerial(w, v *Matrix) {
	n := w.ColsN
	for sweep := 0; sweep < svdMaxSweeps; sweep++ {
		rotated := false
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				if svdRotatePair(w, v, p, q) {
					rotated = true
				}
			}
		}
		if !rotated {
			break
		}
	}
}

// svdSweepsParallel runs the round-robin ordering; the pairs of one
// round touch disjoint columns, so each round fans out over the pool.
// Unlike the two-sided eigensolver no phase split is needed — a
// one-sided rotation reads and writes only its own two columns.
func svdSweepsParallel(w, v *Matrix) {
	n := w.ColsN
	np := n
	if np%2 == 1 {
		np++
	}
	players := make([]int, np)
	for i := range players {
		players[i] = i
	}
	if np > n {
		players[np-1] = -1
	}
	half := np / 2
	rotatedPair := make([]bool, half)
	for sweep := 0; sweep < svdMaxSweeps; sweep++ {
		rotated := false
		for round := 0; round < np-1; round++ {
			ParallelFor(half, 1, func(lo, hi int) {
				for k := lo; k < hi; k++ {
					p, q := players[k], players[np-1-k]
					if p < 0 || q < 0 {
						rotatedPair[k] = false
						continue
					}
					if p > q {
						p, q = q, p
					}
					rotatedPair[k] = svdRotatePair(w, v, p, q)
				}
			})
			for _, r := range rotatedPair {
				if r {
					rotated = true
				}
			}
			rotatePlayers(players)
		}
		if !rotated {
			break
		}
	}
}

// rotatePlayers advances the round-robin schedule: index 0 is fixed,
// the rest rotate one position.
func rotatePlayers(players []int) {
	np := len(players)
	last := players[np-1]
	copy(players[2:], players[1:np-1])
	players[1] = last
}

// SVDGram computes the thin SVD of a short-and-wide m×d matrix
// (m << d) through the m×m Gram matrix G = a*aᵀ: eigendecomposing G
// gives U and Σ², and the right singular vectors follow from
// vt = Σ⁻¹ Uᵀ a. It never forms any d×d object, so it is the rotation
// kernel used by Frequent Directions on 2-megapixel-wide buffers.
//
// Rows of vt whose singular value is numerically zero (relative to the
// largest) are left as zero rows; the FD shrink step multiplies them by
// zero anyway.
func SVDGram(a *Matrix) (u *Matrix, s []float64, vt *Matrix) {
	m, d := a.Dims()
	s = make([]float64, m)
	vt = New(m, d)
	u = New(m, m)
	svdGramCore(split{top: a}, s, vt, u)
	return u, s, vt
}

// SVDGramTo is SVDGram without the left factor, writing into
// caller-owned storage: sigma must have capacity >= m (it is resized
// and returned), vt must be r×d with r <= m. vt's row count selects how
// many right singular vectors are back-multiplied: all m singular
// values are always returned, but only the leading r rows of
// Σ⁻¹Uᵀa are formed — bit-identical to the leading r rows of the m-row
// call. All internal workspace — the Gram matrix, the eigensolver
// state, and the back-substitution coefficients — comes from a
// process-wide pool, so steady-state calls perform zero heap
// allocations.
func SVDGramTo(a *Matrix, sigma []float64, vt *Matrix) []float64 {
	return SVDGramSplitTo(a, nil, sigma, vt)
}

// SVDGramSplitTo is SVDGramTo of the matrix whose rows are top's and
// then low's, low holding whole float32 rows of top's width, row-major:
// bit for bit SVDGramTo of the float64 matrix those rows widen to,
// without making it (split.go). A Frequent Directions basis read passes
// its float64 rows and the float32 rows appended since its last
// rotation, and r = k, the rows it returns.
func SVDGramSplitTo(top *Matrix, low []float32, sigma []float64, vt *Matrix) []float64 {
	s := newSplit(top, low)
	sigma = ensureFloats(sigma, s.rows())
	svdGramCore(s, sigma, vt, nil)
	return sigma
}

// SVDGramInPlace is SVDGramSplitTo with top as its own vt: it
// decomposes the matrix of top's rows and then low's and overwrites
// top's first r rows with the leading r rows of Σ⁻¹Uᵀ[top; low] — bit
// for bit the rows SVDGramSplitTo writes into an r×d vt — leaving rows
// r… of top, and low, as they were. It returns all m singular values in
// sigma's storage, as SVDGramTo does. This is the FD rotation entry
// point, with r = ℓ because the shrink zeroes every direction at or
// below σ_ℓ: the right singular vectors land in the float64 rows they
// are about to be scaled in, and no r×d matrix is held beside them.
func SVDGramInPlace(top *Matrix, low []float32, sigma []float64, r int) []float64 {
	start := time.Now()
	if r < 0 || r > top.RowsN {
		panic("mat: SVDGramInPlace row count out of range")
	}
	s := newSplit(top, low)
	sigma = ensureFloats(sigma, s.rows())
	sc := gramFactors(s, sigma, r)
	// The header lives in the pooled scratch: a pooled product hands it
	// to its job, so a local would escape.
	sc.vt = Matrix{RowsN: r, ColsN: top.ColsN, Stride: top.Stride, Data: top.Data}
	mulSplitTo(&sc.vt, sc.coef, s)
	sc.vt = Matrix{}
	releaseSVDScratch(sc)
	observeSince(obsKernelSVDG, start)
	return sigma
}

// svdGramCore runs the Gram-trick SVD of s: sigma and vt are caller
// storage, u is filled with the left singular vectors when non-nil.
func svdGramCore(s split, sigma []float64, vt *Matrix, u *Matrix) {
	start := time.Now()
	m, d := s.rows(), s.top.ColsN
	if vt.RowsN > m || vt.ColsN != d {
		panic("mat: SVDGram vt shape mismatch")
	}
	sc := gramFactors(s, sigma, vt.RowsN)
	if len(s.low) == 0 {
		MulTo(vt, sc.coef, s.top)
	} else {
		mulSplitTo(vt, sc.coef, s)
	}
	if u != nil {
		for i := 0; i < m; i++ {
			for k, uik := range sc.ut.Row(i) {
				u.Set(k, i, uik)
			}
		}
	}
	releaseSVDScratch(sc)
	observeSince(obsKernelSVDG, start)
}

// gramFactors is the decomposition every entry point shares: it fills s
// with a's m singular values and returns pooled scratch holding Uᵀ and
// the r×m back-multiplication coefficients, whose row i is row i of Uᵀ
// over σᵢ (a zero row for numerically zero σᵢ) — so that coef·a is the
// leading r rows of vt, and the sub-tolerance ones come out as the
// documented zero rows. The caller releases the scratch.
func gramFactors(a split, s []float64, r int) *svdScratch {
	m := a.rows()
	sc := grabSVDScratch()
	sc.g = ensureMat(sc.g, m, m)
	gramSplitTo(sc.g, a)
	sc.ut = ensureMat(sc.ut, m, m)
	sc.vals = ensureFloats(sc.vals, m)
	// The eigensolver destroys its input; g is not needed afterwards.
	sc.work = ensureFloats(sc.work, m)
	eigSymInto(sc.g, sc.ut, sc.vals, sc.work)

	var maxVal float64
	if m > 0 && sc.vals[0] > 0 {
		maxVal = sc.vals[0]
	}
	for i, v := range sc.vals {
		if v < 0 {
			v = 0 // clamp tiny negative eigenvalues from roundoff
		}
		s[i] = math.Sqrt(v)
	}
	sc.coef = ensureMat(sc.coef, r, m)
	tol := 1e-14 * math.Sqrt(maxVal)
	for i := 0; i < r; i++ {
		row := sc.coef.Row(i)
		if s[i] <= tol {
			for k := range row {
				row[k] = 0
			}
			continue
		}
		inv := 1 / s[i]
		for k, uik := range sc.ut.Row(i) {
			row[k] = uik * inv
		}
	}
	return sc
}
