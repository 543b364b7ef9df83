package sketch

import (
	"math"
	"testing"

	"arams/internal/mat"
	"arams/internal/rng"
)

// naiveFD is the textbook Frequent Directions algorithm (Liberty 2013):
// an (ℓ+1)-row buffer rotated after every single insertion. It is too
// slow for production but serves as the ground-truth reference for the
// fast 2ℓ-buffer variant.
func naiveFD(a *mat.Matrix, ell int) *mat.Matrix {
	d := a.ColsN
	buf := mat.New(ell+1, d)
	next := 0
	for i := 0; i < a.RowsN; i++ {
		if next == ell+1 {
			shrinkNaive(buf, ell)
			next = ell
		}
		copy(buf.Row(next), a.Row(i))
		next++
	}
	if next == ell+1 {
		shrinkNaive(buf, ell)
	}
	out := mat.New(ell, d)
	for i := 0; i < ell; i++ {
		copy(out.Row(i), buf.Row(i))
	}
	return out
}

func shrinkNaive(buf *mat.Matrix, ell int) {
	_, sigma, vt := mat.SVD(buf)
	var delta float64
	if ell < len(sigma) {
		delta = sigma[ell] * sigma[ell]
	}
	buf.Zero()
	for i := 0; i < ell && i < len(sigma); i++ {
		s2 := sigma[i]*sigma[i] - delta
		if s2 <= 0 {
			break
		}
		s := math.Sqrt(s2)
		dst := buf.Row(i)
		src := vt.Row(i)
		for j := range dst {
			dst[j] = s * src[j]
		}
	}
}

func TestFastFDMatchesNaiveReference(t *testing.T) {
	g := rng.New(60)
	for _, tc := range []struct{ n, d, ell int }{
		{60, 15, 4}, {120, 25, 8},
	} {
		a := mat.RandGaussian(tc.n, tc.d, g)
		ref := naiveFD(a, tc.ell)
		fast := NewFrequentDirections(tc.ell, tc.d, Options{})
		fast.AppendMatrix(a)
		b := fast.Sketch()

		eRef := CovErr(a, ref)
		eFast := CovErr(a, b)
		bound := FDBound(a, tc.ell)
		if eRef > bound*(1+1e-9) {
			t.Fatalf("%+v: naive reference violates its own bound?! %v > %v", tc, eRef, bound)
		}
		if eFast > bound*(1+1e-9) {
			t.Fatalf("%+v: fast FD violates the bound: %v > %v", tc, eFast, bound)
		}
		// Fast FD rotates less often and can only be within a modest
		// factor of the per-row reference.
		if eFast > 3*eRef+1e-12 && eRef > 1e-12 {
			t.Fatalf("%+v: fast FD error %v far above reference %v", tc, eFast, eRef)
		}
	}
}

func TestNaiveAndFastCaptureSameSubspace(t *testing.T) {
	// On effectively low-rank data both variants must recover the same
	// dominant row space.
	g := rng.New(61)
	// Rank-3 data with noise.
	base := mat.RandGaussian(3, 20, g)
	a := mat.New(80, 20)
	for i := 0; i < 80; i++ {
		w := []float64{g.Norm(), g.Norm(), g.Norm()}
		row := a.Row(i)
		for k := 0; k < 3; k++ {
			for j := 0; j < 20; j++ {
				row[j] += w[k] * base.At(k, j)
			}
		}
		for j := range row {
			row[j] += 0.01 * g.Norm()
		}
	}
	ref := naiveFD(a, 6)
	fast := NewFrequentDirections(6, 20, Options{})
	fast.AppendMatrix(a)

	_, _, vtRef := mat.SVDGram(ref)
	vtFast := fast.Basis(3)
	refBasis := mat.New(3, 20)
	for i := 0; i < 3; i++ {
		copy(refBasis.Row(i), vtRef.Row(i))
	}
	// Principal angles: ‖V_fast·V_refᵀ‖ should be ≈ orthonormal (all
	// singular values ≈ 1).
	cross := mat.MulABt(vtFast, refBasis)
	_, s, _ := mat.SVD(cross)
	for i, v := range s {
		if v < 0.99 {
			t.Fatalf("principal angle %d: cos = %v, subspaces disagree", i, v)
		}
	}
}

// goldenStream is a fixed seeded low-rank-plus-noise stream with a
// decaying spectrum, so every rotation shrinks a well-separated head
// and a noisy tail.
func goldenStream(n, d, rank int, seed uint64) *mat.Matrix {
	g := rng.New(seed)
	basis := mat.New(rank, d)
	for i := range basis.Data {
		basis.Data[i] = g.Norm()
	}
	x := mat.New(n, d)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for k := 0; k < rank; k++ {
			c := g.Norm() / float64(k+1)
			for j, b := range basis.Row(k) {
				row[j] += c * b
			}
		}
		for j := range row {
			row[j] += 0.01 * g.Norm()
		}
	}
	return x
}

// jacobiRef is fast FD over the rows the sketch stores — each rounded
// to float32 — in one all-float64 2ℓ×d buffer, with every rotation
// factored by the one-sided Jacobi SVD (mat.SVD) instead of the Gram
// trick: the cross-check the sketch's one factorization is held to. Its
// delta carries the same rounding charges as the sketch's Σδ.
type jacobiRef struct {
	ell   int
	buf   *mat.Matrix
	next  int
	delta float64
}

func jacobiFD(a *mat.Matrix, ell int) *jacobiRef {
	r := &jacobiRef{ell: ell, buf: mat.New(2*ell, a.ColsN)}
	for i := 0; i < a.RowsN; i++ {
		if r.next == 2*ell {
			r.rotate()
		}
		dst := r.buf.Row(r.next)
		for j, v := range a.Row(i) {
			dst[j] = float64(float32(v))
		}
		r.delta += appendCharge(mat.Norm2Sq(a.Row(i)), a.ColsN)
		r.next++
	}
	return r
}

func (r *jacobiRef) rotate() {
	_, sigma, vt := mat.SVD(r.buf.Rows(0, r.next))
	var delta float64
	if r.ell < len(sigma) {
		delta = sigma[r.ell] * sigma[r.ell]
	}
	r.delta += delta
	r.buf.Zero()
	for i := 0; i < r.ell && i < len(sigma); i++ {
		if s2 := sigma[i]*sigma[i] - delta; s2 > 0 {
			mat.ScaleTo(r.buf.Row(i), math.Sqrt(s2), vt.Row(i))
		}
	}
	r.next = r.ell
}

// sketch compacts to ℓ rows and returns them.
func (r *jacobiRef) sketch() *mat.Matrix {
	if r.next > r.ell {
		r.rotate()
	}
	return r.buf.Rows(0, r.ell).Clone()
}

// basis is the top-k right singular vectors of the occupied rows.
func (r *jacobiRef) basis(k int) *mat.Matrix {
	_, _, vt := mat.SVD(r.buf.Rows(0, r.next))
	return vt.Rows(0, k)
}

// TestBackendsAgreeOverWholeStreams runs whole streams through the
// sketch and through jacobiRef, the same rounded rows factored by the
// Jacobi SVD. The Gram trick squares the condition number and its
// tridiagonal-QL eigensolver is accurate in ‖A‖², not relative to each
// eigenvalue, so what the two must share is absolute: covariance error
// and Σδ within 1e-9·‖A‖_F² of each other, the certificate holding on
// both, and the leading-k bases spanning the same subspace wherever the
// sketch's spectrum has a gap to resolve it by. The second stream's
// directions decay to 1e-6 of the first — a Gram spectrum of twelve
// decades.
func TestBackendsAgreeOverWholeStreams(t *testing.T) {
	const ell, gapFrac, angleTol = 12, 0.05, 1e-10
	// Twenty-four directions scaled from 1 down to 1e-6, over noise far
	// below the last of them.
	g := rng.New(6)
	dirs := mat.RandGaussian(24, 96, g)
	decaying := mat.RandGaussian(700, 96, g)
	for i := 0; i < decaying.RowsN; i++ {
		row := decaying.Row(i)
		mat.ScaleTo(row, 1e-10, row)
		for k := 0; k < dirs.RowsN; k++ {
			c := g.Norm() * math.Pow(10, -6*float64(k)/float64(dirs.RowsN-1))
			for j, b := range dirs.Row(k) {
				row[j] += c * b
			}
		}
	}
	for name, a := range map[string]*mat.Matrix{
		"golden":        goldenStream(700, 96, 20, 20240917),
		"decay_to_1e-6": decaying,
	} {
		frob := a.FrobeniusNormSq()
		fd := NewFrequentDirections(ell, a.ColsN, Options{})
		fd.AppendMatrix(a)
		ref := jacobiFD(a, ell)
		// The bases are read before compaction, where Basis reads the
		// rows the next rotation would keep.
		_, sigma, _ := mat.SVD(ref.buf.Rows(0, ref.next))
		compared := 0
		for k := 1; k < ell; k++ {
			if sigma[k-1]-sigma[k] < gapFrac*sigma[0] {
				continue
			}
			vG, vJ := fd.Basis(k), ref.basis(k)
			if vG.RowsN != k {
				t.Fatalf("%s: Basis(%d) has %d rows", name, k, vG.RowsN)
			}
			// sin of the largest principal angle ≤ ‖V_G − (V_G·V_Jᵀ)·V_J‖_F.
			resid := mat.Mul(mat.MulABt(vG, vJ), vJ)
			resid.Sub(vG)
			if s := resid.FrobeniusNorm(); s > angleTol {
				t.Errorf("%s: leading-%d subspaces %.3g apart, tolerance %g", name, k, s, angleTol)
			}
			compared++
		}
		if compared == 0 {
			t.Errorf("%s: no gap of %g·σ₁ in the sketch's spectrum %v", name, gapFrac, sigma)
		}
		bG, bJ := fd.Sketch(), ref.sketch()
		eG, eJ := CovErr(a, bG), CovErr(a, bJ)
		if math.Abs(eG-eJ) > 1e-9*frob {
			t.Errorf("%s: covariance error %g (gram) vs %g (jacobi), ‖A‖_F² = %g", name, eG, eJ, frob)
		}
		if math.Abs(fd.Delta()-ref.delta) > 1e-9*frob {
			t.Errorf("%s: Σδ %g (gram) vs %g (jacobi), ‖A‖_F² = %g", name, fd.Delta(), ref.delta, frob)
		}
		if eG > fd.Delta()+1e-9*frob || eJ > ref.delta+1e-9*frob {
			t.Errorf("%s: certificate broken: err %g > Σδ %g (gram) or %g > %g (jacobi)", name, eG, fd.Delta(), eJ, ref.delta)
		}
	}
}

// TestBasisKeepsItsSignsAlongAStream: an eigenvector's sign is
// arbitrary, but a UMAP model fitted on one Basis is asked to place
// points projected on a later one (pipeline.QuickSnapshot), so a
// well-separated direction must come back as itself, not its negative,
// from one read to the next.
func TestBasisKeepsItsSignsAlongAStream(t *testing.T) {
	const ell, k, step = 12, 4, 30
	x := goldenStream(700, 96, 20, 20240917)
	fd := NewFrequentDirections(ell, x.ColsN, Options{})
	fd.AppendMatrix(x.Rows(0, 100))
	prev := fd.Basis(k)
	for lo := 100; lo+step <= x.RowsN; lo += step {
		fd.AppendMatrix(x.Rows(lo, lo+step))
		cur := fd.Basis(k)
		for j := 0; j < k; j++ {
			if c := mat.Dot(prev.Row(j), cur.Row(j)); c < 0.9 {
				t.Fatalf("after %d rows: direction %d has cosine %.3f with its previous read", lo+step, j, c)
			}
		}
		prev = cur
	}
}
