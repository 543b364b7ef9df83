package sketch

import (
	"math"
	"testing"

	"arams/internal/mat"
	"arams/internal/rng"
)

// float64FD is the sketch as it was before its incoming rows were stored
// at float32: one all-float64 2ℓ×d buffer, rotated by SVDGramTo into a
// separate Vᵀ and scaled from it (the bits of the in-place rotation,
// mat.TestInPlaceBackMultiplyGivesMulToBits), fed rows the caller has
// already rounded. Its Σδ books every append's charge and every
// rotation's shrinkage in the sketch's order, so the two sums are one
// float64 sum.
type float64FD struct {
	ell, d, next int
	buf          *mat.Matrix
	delta        float64
}

func newFloat64FD(ell, d int) *float64FD {
	return &float64FD{ell: ell, d: d, buf: mat.New(2*ell, d)}
}

// appendRounded stores row rounded to float32, charging the float64
// row's rounding as the sketch does.
func (r *float64FD) appendRounded(row []float64) {
	if r.next == 2*r.ell {
		r.rotate()
	}
	dst := r.buf.Row(r.next)
	for j, v := range row {
		dst[j] = float64(float32(v))
	}
	r.delta += appendCharge(mat.Norm2Sq(row), r.d)
	r.next++
}

func (r *float64FD) rotate() {
	vt := mat.New(r.ell, r.d)
	sigma := mat.SVDGramTo(r.buf.Rows(0, r.next), nil, vt)
	var delta float64
	if r.ell < len(sigma) {
		delta = sigma[r.ell] * sigma[r.ell]
	}
	r.delta += delta
	r.buf.Zero()
	for i := 0; i < r.ell; i++ {
		s2 := sigma[i]*sigma[i] - delta
		if s2 <= 0 {
			break
		}
		mat.ScaleTo(r.buf.Row(i), math.Sqrt(s2), vt.Row(i))
	}
	r.next = r.ell
}

func (r *float64FD) grow(dl int) {
	b := mat.New(2*(r.ell+dl), r.d)
	copy(b.Data, r.buf.Data[:r.next*r.d])
	r.buf, r.ell = b, r.ell+dl
}

// merge is Merge: other compacted, its nonzero rows appended rounded.
func (r *float64FD) merge(other *float64FD) {
	if other.next > other.ell {
		other.rotate()
	}
	for i := 0; i < other.next; i++ {
		if row := other.buf.Row(i); mat.Norm2Sq(row) != 0 {
			r.appendRounded(row)
		}
	}
	r.delta += other.delta
}

// basis is Basis: the occupied rows decomposed, k rows cut, rank-clamped.
func (r *float64FD) basis(k int) *mat.Matrix {
	k = min(k, min(r.ell, r.next))
	out := mat.New(k, r.d)
	sigma := mat.SVDGramTo(r.buf.Rows(0, r.next), nil, out)
	rank := 0
	for _, s := range sigma {
		if s > 1e-6*sigma[0] && s > 0 {
			rank++
		}
	}
	return out.Rows(0, min(rank, k))
}

// sameAsFloat64FD reports the first way fd differs, bit for bit, from
// the float64 sketch of the rounded rows: its occupied rows (float64
// kept rows, float32 incoming ones widened) against the buffer's, and Σδ.
func sameAsFloat64FD(fd *FrequentDirections, ref *float64FD) string {
	if fd.nextZero != ref.next || fd.ell != ref.ell {
		return "shape"
	}
	top, low := fd.occupied()
	rows := append([]float64(nil), top.Data[:top.RowsN*fd.d]...)
	for _, r := range low {
		wide := make([]float64, len(r))
		mat.Widen(wide, r)
		rows = append(rows, wide...)
	}
	for i, v := range rows {
		if math.Float64bits(v) != math.Float64bits(ref.buf.Data[i]) {
			return "rows"
		}
	}
	if math.Float64bits(fd.Delta()) != math.Float64bits(ref.delta) {
		return "Σδ"
	}
	return ""
}

// TestKeptRowsAreFloat64FDOfRoundedRows: the sketch with its incoming
// rows at float32 is, bit for bit, the all-float64 sketch fed the same
// rows rounded to float32 first — its kept rows, its incoming rows, Σδ
// and Basis — after whole streams, a Grow mid-stream and a Merge, on the
// rotation's shape at diff_sharded's ℓ (2ℓ×d = 50×4096, the kernels'
// pooled branch) and a narrow one. The kernel set and the pool width
// are the process's: CI runs it at GOMAXPROCS 1 and 2 and under purego.
func TestKeptRowsAreFloat64FDOfRoundedRows(t *testing.T) {
	for _, tc := range []struct {
		name     string
		x        *mat.Matrix
		ell, k   int
		growAt   int
		mergeLen int
	}{
		{"narrow", goldenStream(700, 96, 20, 20240917), 12, 8, 350, 130},
		{"wide", goldenStream(160, 4096, 30, 77), 25, 12, 90, 70},
	} {
		d := tc.x.ColsN
		fd, ref := NewFrequentDirections(tc.ell, d, Options{}), newFloat64FD(tc.ell, d)
		for i := 0; i < tc.x.RowsN; i++ {
			if i == tc.growAt {
				fd.Grow(3)
				ref.grow(3)
			}
			fd.Append(tc.x.Row(i))
			ref.appendRounded(tc.x.Row(i))
			if i%50 == 0 {
				if what := sameAsFloat64FD(fd, ref); what != "" {
					t.Fatalf("%s: after %d rows the %s differ", tc.name, i+1, what)
				}
			}
		}
		if what := sameAsFloat64FD(fd, ref); what != "" {
			t.Fatalf("%s: after the stream the %s differ", tc.name, what)
		}
		if got, want := fd.Basis(tc.k), ref.basis(tc.k); !sameBits(got, want) {
			t.Errorf("%s: Basis(%d) differs from the float64 kernel's on the rounded rows", tc.name, tc.k)
		}
		other, otherRef := NewFrequentDirections(tc.ell, d, Options{}), newFloat64FD(tc.ell, d)
		for i := 0; i < tc.mergeLen; i++ {
			row := tc.x.Row(tc.x.RowsN - 1 - i)
			other.Append(row)
			otherRef.appendRounded(row)
		}
		fd.Merge(other)
		ref.merge(otherRef)
		if what := sameAsFloat64FD(fd, ref); what != "" {
			t.Errorf("%s: after a merge the %s differ", tc.name, what)
		}
	}
}

// exactCovErr is ‖AᵀA − BᵀB‖₂ for the float64 rows A the stream fed and
// the sketch's occupied rows B, through the d×d difference.
func exactCovErr(a *mat.Matrix, fd *FrequentDirections) float64 {
	top, low := fd.occupied()
	b := mat.New(top.RowsN+len(low), fd.d)
	copy(b.Data, top.Data[:top.RowsN*fd.d])
	for i, r := range low {
		mat.Widen(b.Row(top.RowsN+i), r)
	}
	return CovErr(a, b)
}

// hardStreams are the streams whose rounding the certificate must carry
// where shrinkage cannot hide it: each has rank 3, below the tests' ℓ,
// so a rotation shrinks roundoff alone and Σδ is, in effect, the
// rounding's charge. One is
// that low-rank stream as it is (its Σδ was 0 before the incoming rows
// were rounded); one scales its rows and columns so that its elements
// span 1e-30…1e30; one scales it into float32's subnormal range, with
// a third of the columns below the smallest subnormal, where they round
// to zero. The engine's numerics test feeds the same shapes.
func hardStreams() map[string]*mat.Matrix {
	g := rng.New(5050)
	const n, d = 160, 48
	lowRank := func() *mat.Matrix { return mat.Mul(mat.RandGaussian(n, 3, g), mat.RandGaussian(3, d, g)) }
	spanning := lowRank()
	for i := 0; i < n; i++ {
		row := spanning.Row(i)
		for j := range row {
			row[j] *= math.Pow(10, float64(i%31-15)) * math.Pow(10, float64(j%31-15))
		}
	}
	subnormal := lowRank()
	for i, v := range subnormal.Data {
		subnormal.Data[i] = v * []float64{1e-40, 1e-46, 1e-42}[i%d%3]
	}
	return map[string]*mat.Matrix{"rank_deficient": lowRank(), "span_1e-30_1e30": spanning, "subnormal": subnormal}
}

// TestCertificateCoversRoundingOnHardStreams: on every hard stream,
// Σδ — CovBound, in effect the rounding charge alone — is at least the exact
// covariance error against the float64 rows, whatever the rounding did.
// The subnormal stream needs the charge's absolute terms: (2u + u²)‖a‖²
// alone falls short of its error.
func TestCertificateCoversRoundingOnHardStreams(t *testing.T) {
	const ell = 8
	for name, a := range hardStreams() {
		fd := NewFrequentDirections(ell, a.ColsN, Options{})
		fd.AppendMatrix(a)
		if fd.Rotations() == 0 {
			t.Fatalf("%s: no rotation ran", name)
		}
		if err, bound := exactCovErr(a, fd), fd.Delta(); !(err <= bound) {
			t.Errorf("%s: exact covariance error %g exceeds the certificate %g", name, err, bound)
		}
		fd.Compact()
		if err, bound := exactCovErr(a, fd), fd.Delta(); !(err <= bound) {
			t.Errorf("%s compacted: exact covariance error %g exceeds the certificate %g", name, err, bound)
		}
	}
}
