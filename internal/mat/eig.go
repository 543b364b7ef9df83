package mat

import (
	"math"
	"time"
)

// eigMaxSweeps bounds the cyclic-Jacobi iteration; convergence is
// quadratic once rotations get small, so real inputs finish in a
// handful of sweeps.
const eigMaxSweeps = 64

// eigParallelMinN is the matrix order below which the parallel
// round-robin sweep is never worth its coordination overhead; the
// 2ℓ×2ℓ Gram matrices of typical FD rotations stay serial.
const eigParallelMinN = 96

// EigSym computes the full eigendecomposition of a symmetric n×n matrix
// a using the cyclic Jacobi method: a = v * diag(vals) * vᵀ with the
// eigenvalues sorted in descending order and v's columns the matching
// orthonormal eigenvectors. The input is not modified; it must be
// exactly symmetric (a[i][j] and a[j][i] the same bits, as GramTo
// produces), because the sweeps read whichever triangle is contiguous.
//
// Jacobi iteration is chosen over tridiagonalization+QL because the
// matrices this package decomposes are small (Gram matrices of sketch
// buffers, at most a few hundred rows) and Jacobi delivers high relative
// accuracy for the small eigenvalues that the Frequent Directions shrink
// step subtracts. Large decompositions run the round-robin ordering,
// whose disjoint rotation pairs spread across the shared worker pool.
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
	eigSymInto(w, vt, vals)
	return vals, vt.T()
}

// eigSymInto runs the Jacobi eigendecomposition in caller-owned
// storage: w (destroyed; must be exactly symmetric, as GramTo's output
// is), vt (overwritten with the eigenvectors as rows, i.e. Vᵀ), and
// vals (filled with descending eigenvalues). Accumulating Vᵀ instead of
// V keeps every rotation, the final sort's swaps and the caller's reads
// of one eigenvector on contiguous rows. It performs no heap
// allocations on the serial path, which is what the pooled FD rotation
// relies on.
func eigSymInto(w, vt *Matrix, vals []float64) {
	start := time.Now()
	n := w.RowsN
	setIdentity(vt)
	if n == 0 {
		return
	}
	if n == 1 {
		vals[0] = w.At(0, 0)
		return
	}
	if n >= eigParallelMinN && Workers() > 1 {
		eigSweepsParallel(w, vt)
	} else {
		eigSweepsSerial(w, vt)
	}
	for i := 0; i < n; i++ {
		vals[i] = w.At(i, i)
	}
	sortEigenpairs(vals, vt)
	observeSince(obsKernelEig, start)
}

// eigConverged reports whether the off-diagonal mass of w is negligible
// relative to its scale — the sweep loops' stopping rule.
func eigConverged(w *Matrix) bool {
	off := offDiagNorm(w)
	return off == 0 || off <= 1e-30*w.MaxAbs()*float64(w.RowsN)
}

// eigSweepsSerial is the classic cyclic ordering: every (p, q) pair in
// row-major order, repeated until the off-diagonal mass is negligible.
func eigSweepsSerial(w, vt *Matrix) {
	n := w.RowsN
	for sweep := 0; sweep < eigMaxSweeps && !eigConverged(w); sweep++ {
		for p := 0; p < n-1; p++ {
			rp := w.Row(p)
			for q := p + 1; q < n; q++ {
				apq := rp[q]
				if apq == 0 {
					continue
				}
				rq := w.Row(q)
				app := rp[p]
				aqq := rq[q]
				// Threshold: rotating for vanishing elements only
				// churns; skip if negligible versus the diagonal.
				if math.Abs(apq) <= 1e-18*(math.Abs(app)+math.Abs(aqq)) {
					rp[q] = 0
					rq[p] = 0
					continue
				}
				c, s := jacobiAngle(app, aqq, apq)
				rotateSym(w, vt, p, q, c, s)
			}
		}
	}
}

// rotateSym applies the rotation J(p,q,c,s) as w = JᵀwJ and vt = Jᵀvt.
// w is exactly symmetric before and after, so column p is row p: the
// rotated rows p and q are computed from contiguous memory, the 2×2
// block is then set exactly, and the two rows are copied into columns
// p and q (the copy also lands the block, since rp[q] = rq[p] = 0).
func rotateSym(w, vt *Matrix, p, q int, c, s float64) {
	rp, rq := w.Row(p), w.Row(q)
	app, aqq, apq := rp[p], rq[q], rp[q]
	planeRot(c, s, rp, rq)
	rp[p] = c*c*app - 2*s*c*apq + s*s*aqq
	rq[q] = s*s*app + 2*s*c*apq + c*c*aqq
	rp[q] = 0
	rq[p] = 0
	for i, off := 0, 0; i < len(rp); i, off = i+1, off+w.Stride {
		w.Data[off+p] = rp[i]
		w.Data[off+q] = rq[i]
	}
	planeRot(c, s, vt.Row(p), vt.Row(q))
}

// Chunk sizes for the two phases of a parallel round: a pair rotates
// four rows of n elements, a row of the column phase touches two
// elements per pair — both far below a pool dispatch unless batched.
const (
	eigPairChunk = 4
	eigRowChunk  = 16
)

// eigSweepsParallel runs the round-robin (chess tournament) ordering:
// each of the n−1 rounds per sweep pairs every index exactly once, the
// pairs are disjoint, and one round's rotations commute — so the row
// phase and the column phase each fan out over the pool with a barrier
// between them. Rotation angles for a round are computed up front from
// the round-start matrix, which is what makes the phases exact (the
// product of disjoint plane rotations applied as JᵀAJ). The row phase
// splits by pair (w ← Jᵀw and vt ← Jᵀvt touch rows p and q only); the
// column phase w ← wJ splits by row, each row applying every pair's
// 2-element rotation to itself, so no phase walks a column.
func eigSweepsParallel(w, vt *Matrix) {
	n := w.RowsN
	np := n
	if np%2 == 1 {
		np++ // pad with a bye
	}
	players := make([]int, np)
	for i := range players {
		players[i] = i
	}
	if np > n {
		players[np-1] = -1
	}
	half := np / 2
	ps := make([]int, half)
	qs := make([]int, half)
	cs := make([]float64, half)
	sn := make([]float64, half)
	active := make([]bool, half)

	for sweep := 0; sweep < eigMaxSweeps && !eigConverged(w); sweep++ {
		for round := 0; round < np-1; round++ {
			nact := 0
			for k := 0; k < half; k++ {
				active[k] = false
				p, q := players[k], players[np-1-k]
				if p < 0 || q < 0 {
					continue
				}
				if p > q {
					p, q = q, p
				}
				apq := w.At(p, q)
				if apq == 0 {
					continue
				}
				app := w.At(p, p)
				aqq := w.At(q, q)
				if math.Abs(apq) <= 1e-18*(math.Abs(app)+math.Abs(aqq)) {
					w.Set(p, q, 0)
					w.Set(q, p, 0)
					continue
				}
				cs[k], sn[k] = jacobiAngle(app, aqq, apq)
				ps[k], qs[k] = p, q
				active[k] = true
				nact++
			}
			if nact > 0 {
				ParallelFor(half, eigPairChunk, func(lo, hi int) {
					for k := lo; k < hi; k++ {
						if active[k] {
							planeRot(cs[k], sn[k], w.Row(ps[k]), w.Row(qs[k]))
							planeRot(cs[k], sn[k], vt.Row(ps[k]), vt.Row(qs[k]))
						}
					}
				})
				ParallelFor(n, eigRowChunk, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						row := w.Row(i)
						for k := 0; k < half; k++ {
							if active[k] {
								p, q, c, s := ps[k], qs[k], cs[k], sn[k]
								wp, wq := row[p], row[q]
								row[p] = c*wp - s*wq
								row[q] = s*wp + c*wq
							}
						}
					}
				})
				for k := 0; k < half; k++ {
					if active[k] {
						w.Set(ps[k], qs[k], 0)
						w.Set(qs[k], ps[k], 0)
					}
				}
			}
			rotatePlayers(players)
		}
	}
}

// jacobiAngle returns the stable (c, s) of the rotation annihilating
// apq (Golub & Van Loan).
func jacobiAngle(app, aqq, apq float64) (c, s float64) {
	theta := (aqq - app) / (2 * apq)
	var t float64
	if theta >= 0 {
		t = 1 / (theta + math.Sqrt(1+theta*theta))
	} else {
		t = -1 / (-theta + math.Sqrt(1+theta*theta))
	}
	c = 1 / math.Sqrt(1+t*t)
	s = t * c
	return c, s
}

// rotatePlayers advances the round-robin schedule: index 0 is fixed,
// the rest rotate one position.
func rotatePlayers(players []int) {
	np := len(players)
	last := players[np-1]
	copy(players[2:], players[1:np-1])
	players[1] = last
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

func offDiagNorm(w *Matrix) float64 {
	var s float64
	n := w.RowsN
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := w.At(i, j)
			s += 2 * v * v
		}
	}
	return math.Sqrt(s)
}
