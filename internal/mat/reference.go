package mat

import (
	"math"
	"runtime"
	"sync"
)

// Reference kernels: the straightforward implementations that MulTo,
// MulABt, and GramTo shipped with before the tiled execution layer.
// They are kept for two jobs — property tests assert the tiled kernels
// match them to 1e-12, and the ref_* cases of this package's
// benchmarks time the tiled kernels against them — so they must stay
// byte-for-byte faithful to the originals (including the per-call
// goroutines and the Gram feeder channel whose overhead the pool was
// built to remove).

// RefMulTo computes dst = a*b with the pre-tiling kernel: i-k-j axpy
// order, one ad-hoc goroutine per row chunk above the parallel
// threshold.
func RefMulTo(dst, a, b *Matrix) {
	if a.ColsN != b.RowsN || dst.RowsN != a.RowsN || dst.ColsN != b.ColsN {
		panic("mat: RefMulTo shape mismatch")
	}
	dst.Zero()
	work := a.RowsN * a.ColsN * b.ColsN
	if work < parallelThreshold || a.RowsN == 1 {
		refMulRange(dst, a, b, 0, a.RowsN)
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > a.RowsN {
		workers = a.RowsN
	}
	var wg sync.WaitGroup
	chunk := (a.RowsN + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, a.RowsN)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			refMulRange(dst, a, b, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

func refMulRange(dst, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		ai := a.Row(i)
		di := dst.Row(i)
		for k, aik := range ai {
			if aik == 0 {
				continue
			}
			bk := b.Row(k)
			axpy(aik, bk, di)
		}
	}
}

// RefMulABt computes a*bᵀ with the pre-tiling kernel: one Dot per
// output element, ad-hoc goroutines above the parallel threshold.
func RefMulABt(a, b *Matrix) *Matrix {
	if a.ColsN != b.ColsN {
		panic("mat: RefMulABt inner dimension mismatch")
	}
	out := New(a.RowsN, b.RowsN)
	work := a.RowsN * b.RowsN * a.ColsN
	if work < parallelThreshold {
		refMulABtRange(out, a, b, 0, a.RowsN)
		return out
	}
	workers := min(runtime.GOMAXPROCS(0), a.RowsN)
	var wg sync.WaitGroup
	chunk := (a.RowsN + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, min((w+1)*chunk, a.RowsN)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			refMulABtRange(out, a, b, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	return out
}

func refMulABtRange(dst, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		ai := a.Row(i)
		di := dst.Row(i)
		for j := 0; j < b.RowsN; j++ {
			di[j] = Dot(ai, b.Row(j))
		}
	}
}

// RefGram computes a*aᵀ with the pre-tiling kernel: one Dot per upper
// triangle element, rows handed to workers through a feeder channel
// (launched even for tiny matrices — the overhead the pool removed).
func RefGram(a *Matrix) *Matrix {
	out := New(a.RowsN, a.RowsN)
	workers := min(runtime.GOMAXPROCS(0), a.RowsN)
	if a.RowsN*a.RowsN*a.ColsN < parallelThreshold {
		workers = 1
	}
	var wg sync.WaitGroup
	next := make(chan int)
	go func() {
		for i := 0; i < a.RowsN; i++ {
			next <- i
		}
		close(next)
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				ai := a.Row(i)
				for j := i; j < a.RowsN; j++ {
					v := Dot(ai, a.Row(j))
					out.Set(i, j, v)
					out.Set(j, i, v)
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// RefSVDGram computes the Gram-trick thin SVD with the pre-pooling
// flow: RefGram, an allocating eigendecomposition, and the per-k axpy
// reconstruction of vt — one fresh m×d vt allocation per call. It is
// the baseline the pooled SVDGramTo path is benchmarked against.
func RefSVDGram(a *Matrix) (u *Matrix, s []float64, vt *Matrix) {
	m, d := a.Dims()
	g := RefGram(a)
	vals, uu := EigSym(g)
	s = make([]float64, m)
	var maxVal float64
	if len(vals) > 0 && vals[0] > 0 {
		maxVal = vals[0]
	}
	for i, v := range vals {
		if v < 0 {
			v = 0
		}
		s[i] = math.Sqrt(v)
	}
	u = uu
	vt = New(m, d)
	tol := 1e-14 * math.Sqrt(maxVal)
	for i := 0; i < m; i++ {
		if s[i] <= tol {
			continue
		}
		inv := 1 / s[i]
		row := vt.Row(i)
		for k := 0; k < m; k++ {
			c := u.At(k, i) * inv
			if c == 0 {
				continue
			}
			axpy(c, a.Row(k), row)
		}
	}
	return u, s, vt
}

// refEigMaxSweeps bounds the cyclic-Jacobi iteration; convergence is
// quadratic once rotations get small, so real inputs finish in a
// handful of sweeps.
const refEigMaxSweeps = 64

// RefEigSym is the cyclic Jacobi eigensolver every rotation ran before
// EigSym went to tridiagonal QL: every (p, q) pair in row-major order,
// repeated until the off-diagonal mass is negligible, walking the
// row-major w and v through At/Set and accumulating V. It is an order
// of magnitude slower than EigSym and kept as its accuracy oracle —
// Jacobi resolves small eigenvalues to high relative accuracy, so the
// tests measure what QL gives up against it, eigenpair by eigenpair.
func RefEigSym(a *Matrix) (vals []float64, v *Matrix) {
	n := a.RowsN
	if n != a.ColsN {
		panic("mat: RefEigSym needs a square matrix")
	}
	v = Eye(n)
	if n == 0 {
		return nil, v
	}
	w := a.Clone()
	vals = make([]float64, n)
	if n > 1 {
		refEigSweepsCyclic(w, v)
	}
	for i := range vals {
		vals[i] = w.At(i, i)
	}
	for j := 0; j < n; j++ {
		mx := j
		for k := j + 1; k < n; k++ {
			if vals[k] > vals[mx] {
				mx = k
			}
		}
		if mx != j {
			vals[j], vals[mx] = vals[mx], vals[j]
			for i := 0; i < n; i++ {
				t := v.At(i, j)
				v.Set(i, j, v.At(i, mx))
				v.Set(i, mx, t)
			}
		}
	}
	return vals, v
}

// refJacobiPair returns the rotation for the pair (p, q), or ok=false
// when the element is zero or negligible (in which case it is zeroed).
func refJacobiPair(w *Matrix, p, q int) (c, s float64, ok bool) {
	apq := w.At(p, q)
	if apq == 0 {
		return 0, 0, false
	}
	app := w.At(p, p)
	aqq := w.At(q, q)
	if math.Abs(apq) <= 1e-18*(math.Abs(app)+math.Abs(aqq)) {
		w.Set(p, q, 0)
		w.Set(q, p, 0)
		return 0, 0, false
	}
	c, s = jacobiAngle(app, aqq, apq)
	return c, s, true
}

func refEigSweepsCyclic(w, v *Matrix) {
	n := w.RowsN
	for sweep := 0; sweep < refEigMaxSweeps && !eigConverged(w); sweep++ {
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				c, s, ok := refJacobiPair(w, p, q)
				if !ok {
					continue
				}
				app := w.At(p, p)
				aqq := w.At(q, q)
				apq := w.At(p, q)
				w.Set(p, p, c*c*app-2*s*c*apq+s*s*aqq)
				w.Set(q, q, s*s*app+2*s*c*apq+c*c*aqq)
				w.Set(p, q, 0)
				w.Set(q, p, 0)
				for i := 0; i < n; i++ {
					if i == p || i == q {
						continue
					}
					aip := w.At(i, p)
					aiq := w.At(i, q)
					w.Set(i, p, c*aip-s*aiq)
					w.Set(p, i, c*aip-s*aiq)
					w.Set(i, q, s*aip+c*aiq)
					w.Set(q, i, s*aip+c*aiq)
				}
				refRotateCols(v, p, q, c, s)
			}
		}
	}
}

// refRotateCols recombines columns p and q of m: m ← mJ.
func refRotateCols(m *Matrix, p, q int, c, s float64) {
	for i := 0; i < m.RowsN; i++ {
		mp := m.At(i, p)
		mq := m.At(i, q)
		m.Set(i, p, c*mp-s*mq)
		m.Set(i, q, s*mp+c*mq)
	}
}

// eigConverged reports whether the off-diagonal mass of w is negligible
// relative to its scale — the sweep loop's stopping rule.
func eigConverged(w *Matrix) bool {
	off := offDiagNorm(w)
	return off == 0 || off <= 1e-30*w.MaxAbs()*float64(w.RowsN)
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
