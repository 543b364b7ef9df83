package mat

import (
	"math"
	"time"
)

// The symmetric eigensolver under the Gram-trick SVD, and so under
// every Frequent Directions rotation, merge fold and Basis read:
// Householder reduction to tridiagonal form, then QL iterations with
// implicit shifts (EISPACK's tred2 and tql2, Numerical Recipes' tqli;
// the tridiagonal route is also what the paper's LAPACK-backed NumPy
// takes under its SVD).
//
// Until issue 25 this was cyclic Jacobi, chosen because it resolves
// small eigenvalues to high relative accuracy. Nothing downstream can
// use that accuracy. The Frequent Directions guarantee is absolute —
// ‖AᵀA − BᵀB‖₂ ≤ Σδ ≤ ‖A‖_F²/ℓ (Liberty; Ghashami et al.) — so an
// eigenvalue error of n·ε·λ₁ ≈ 1e-14·‖A‖² sits eleven orders under the
// δ each rotation subtracts; svdGramCore already zeroes every direction
// under 1e-14·σ₁ and sketch.Basis cuts at 1e-6·σ₁, because the Gram
// trick has squared the condition number before any eigensolver sees
// the matrix. What Jacobi cost was measured: six to eight sweeps of
// n²/2 rotations, each four row rotations and a strided copy of two
// rows into two columns, were 43 % of a 50×4096 rotation (0.80 ms of
// gram 0.50 + eigsym 0.80 + backmul 0.57) and a third of the CPU of the
// beam_serial benchmark's set-up, and the round-robin ordering a pool
// wider than one selected from n = 96 up was slower than the serial
// sweeps it forked from (38 against 7.7 ms at n = 100, two workers).
// One reduction (4n³/3 flops), one accumulation of Qᵀ (4n³/3) and about
// 1.8 QL iterations per eigenvalue (0.6–1.0·n² row rotations) take
// 0.11 ms on that rotation's Gram matrix and 0.75 ms at n = 100, on one
// goroutine at any order: the solver's bits no longer depend on the
// pool's width.
// EXPERIMENTS.md, "Tridiagonal QL (issue 25)", has the tables.
//
// RefEigSym (reference.go) is the Jacobi solver, kept as the accuracy
// oracle: the tests hold every eigenvalue, residual and the
// orthogonality of V to a stated multiple of n·ε·λ₁ against it, and
// whole streams to the one-sided Jacobi SVD backend.
//
// QL splits an eigenvalue off by a test relative to its two neighbours,
// which on a graded, nearly rank-deficient Gram (Fig. 1's
// super-exponential panel at ℓ = 180) can fail for good. After
// eigMaxIter iterations on one eigenvalue it also accepts the absolute
// test, so a finite matrix always decomposes, and one that meets the
// relative test takes the same path as with it alone. Only a NaN or an
// Inf is given up on, counted in arams_mat_eig_giveups_total.

// eigMaxIter bounds the QL iterations spent on one eigenvalue under
// the relative split test |e[m]| ≤ ε(|d[m]| + |d[m+1]|) alone (EISPACK's
// limit; real input needs under two on average). A finite matrix can
// exhaust it, a tiny eigenvalue beside tiny neighbours; the absolute
// test |e[m]| ≤ ε·maxᵢ(|dᵢ| + |eᵢ|) (EISPACK's tql2, LAPACK's steqr)
// then joins it, and a finite matrix meets one of the two within
// eigMaxIter more. A matrix that does not holds a NaN or an Inf.
const eigMaxIter = 30

// EigSym computes the full eigendecomposition of a symmetric n×n matrix
// a: a = v * diag(vals) * vᵀ with the eigenvalues sorted in descending
// order and v's columns the matching orthonormal eigenvectors, each
// signed so that its largest element is positive. The input is not
// modified; only its lower triangle is read. Eigenvalues and residuals
// are accurate to a small multiple of n·ε·max|λ|; a non-finite input
// returns non-finite values, never a panic.
func EigSym(a *Matrix) (vals []float64, v *Matrix) {
	n := a.RowsN
	if n != a.ColsN {
		panic("mat: EigSym needs a square matrix")
	}
	vt := New(n, n)
	if n == 0 {
		return nil, vt
	}
	w := a.Clone()
	vals = make([]float64, n)
	eigSymInto(w, vt, vals, make([]float64, n))
	return vals, vt.T()
}

// eigSymInto runs the eigendecomposition in caller-owned storage: w
// (destroyed; symmetric, only the lower triangle is read), vt
// (overwritten with the eigenvectors as rows, i.e. Vᵀ), vals (filled
// with descending eigenvalues) and e (n floats of workspace).
// Accumulating Vᵀ instead of V keeps every QL rotation, the final
// sort's swaps and the caller's reads of one eigenvector on contiguous
// rows. It performs no heap allocations, which is what the pooled FD
// rotation relies on, and never touches the worker pool, so its bits do
// not depend on the pool's width.
func eigSymInto(w, vt *Matrix, vals, e []float64) {
	start := time.Now()
	n := w.RowsN
	setIdentity(vt)
	if n == 0 {
		return
	}
	tridiagonalize(w, vals, e)
	accumulateQt(vt, w, vals)
	for i := range vals {
		vals[i] = w.At(i, i)
	}
	copy(e, e[1:])
	e[n-1] = 0
	tridiagQL(vals, e, vt)
	sortEigenpairs(vals, vt)
	fixEigenvectorSigns(vt)
	observeSince(obsKernelEig, start)
}

// tridiagonalize reduces the symmetric w to tridiagonal form
// T = QᵀwQ by Householder reflections Pᵢ = I − uuᵀ/h, i = n−1 … 1,
// each annihilating row i left of the sub-diagonal. On return T's
// diagonal is w's and, for i ≥ 1, e[i] couples i−1 and i, row i of w
// holds uᵢ in its first i elements and hs[i] its h (0 where no
// reflection was needed). Only the lower triangle is read or written, a
// row at a time.
func tridiagonalize(w *Matrix, hs, e []float64) {
	for i := w.RowsN - 1; i >= 1; i-- {
		u := w.Row(i)[:i]
		// Scaling by Σ|uₖ| keeps h clear of under- and overflow.
		var sc float64
		if i > 1 {
			for _, v := range u {
				sc += math.Abs(v)
			}
		}
		if sc == 0 {
			hs[i], e[i] = 0, u[i-1]
			continue
		}
		scale(u, 1/sc, u)
		h := dotKernel(u, u)
		f := u[i-1]
		g := -math.Copysign(math.Sqrt(h), f)
		e[i] = sc * g
		h -= f * g
		u[i-1] = f - g
		hs[i] = h
		// p = Au/h over the leading i×i block, from its lower triangle:
		// row j gives Σ_{k≤j} a_jk·u_k to p_j and a_jk·u_j to p_k, k < j.
		p := e[:i]
		for j := range p {
			rj := w.Row(j)[:j+1]
			p[j] = dotKernel(rj, u)
			axpy(u[j], rj[:j], p)
		}
		scale(p, 1/h, p)
		// q = p − (uᵀp/2h)·u, then A ← A − uqᵀ − quᵀ.
		axpy(-dotKernel(u, p)/(h+h), u, p)
		for j := range p {
			rj := w.Row(j)[:j+1]
			axpy(-u[j], p, rj)
			axpy(-p[j], u, rj)
		}
	}
}

// accumulateQt overwrites the identity in vt with Qᵀ = P₁P₂⋯Pₙ₋₁ for
// the reflections tridiagonalize left in w and hs. Right-multiplying by
// Pᵢ recombines the first i columns of the first i rows — everything
// else of vt is still the identity there — so each step is one dot and
// one axpy per row.
func accumulateQt(vt, w *Matrix, hs []float64) {
	for i := 1; i < w.RowsN; i++ {
		h := hs[i]
		if h == 0 {
			continue
		}
		u := w.Row(i)[:i]
		for k := 0; k < i; k++ {
			rk := vt.Row(k)[:i]
			axpy(-dotKernel(rk, u)/h, u, rk)
		}
	}
}

// tridiagQL diagonalises the symmetric tridiagonal matrix with diagonal
// d and sub-diagonal e (e[i] couples i and i+1) by QL iterations with
// implicit Wilkinson shifts, leaving the eigenvalues in d and applying
// every rotation to rows i and i+1 of vt. All indexing is bounded by
// len(d) whatever the comparisons say, so a NaN cannot walk off the
// end; it stops at the first eigenvalue that 2·eigMaxIter iterations
// do not isolate.
func tridiagQL(d, e []float64, vt *Matrix) {
	const eps = 0x1p-52
	n := len(d)
	for l := 0; l < n; l++ {
		abs := -1.0 // the absolute test's bound, off for eigMaxIter iterations
		for iter := 0; ; iter++ {
			if iter == eigMaxIter {
				for i := range d {
					abs = math.Max(abs, eps*(math.Abs(d[i])+math.Abs(e[i])))
				}
			}
			// The block [l, m] decouples where e[m] is negligible:
			// relative to its neighbours, or to the whole matrix.
			m := l
			for ; m < n-1; m++ {
				if a := math.Abs(e[m]); a <= eps*(math.Abs(d[m])+math.Abs(d[m+1])) || a <= abs {
					break
				}
			}
			if m == l {
				break
			}
			if iter == 2*eigMaxIter {
				obsEigGiveUps.Inc()
				return
			}
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c, p := 1.0, 1.0, 0.0
			i := m - 1
			for ; i >= l; i-- {
				f, b := s*e[i], c*e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					// Underflow: the block splits here, start again.
					d[i+1] -= p
					e[m] = 0
					break
				}
				s, c = f/r, g/r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
				planeRot(c, s, vt.Row(i), vt.Row(i+1))
			}
			if i >= l {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
}

// sortEigenpairs orders (vals, rows of vt) by descending eigenvalue
// in place with a selection sort — no allocation, and n is at most a
// few hundred.
func sortEigenpairs(vals []float64, vt *Matrix) {
	n := len(vals)
	for j := 0; j < n; j++ {
		mx := j
		for k := j + 1; k < n; k++ {
			if vals[k] > vals[mx] {
				mx = k
			}
		}
		if mx != j {
			vals[j], vals[mx] = vals[mx], vals[j]
			rj, rm := vt.Row(j), vt.Row(mx)
			for i := range rj {
				rj[i], rm[i] = rm[i], rj[i]
			}
		}
	}
}

// fixEigenvectorSigns negates every row of vt whose largest-magnitude
// element (the first, among equals) is negative. An eigenvector's sign
// is arbitrary and QL's falls out of the reflections; pinning it makes
// consecutive decompositions of a slowly changing matrix — FD's buffer
// from one rotation to the next — return the same vector rather than
// its negative, which the cyclic Jacobi sweeps did by starting from the
// identity and which a UMAP model fitted on one basis and asked to
// place points projected on the next depends on.
func fixEigenvectorSigns(vt *Matrix) {
	for i := 0; i < vt.RowsN; i++ {
		row := vt.Row(i)
		var big float64
		for _, v := range row {
			if math.Abs(v) > math.Abs(big) {
				big = v
			}
		}
		if big < 0 {
			scale(row, -1, row)
		}
	}
}

// setIdentity overwrites m with the identity.
func setIdentity(m *Matrix) {
	for i := 0; i < m.RowsN; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = 0
		}
		if i < m.ColsN {
			row[i] = 1
		}
	}
}
