// Package mat implements the dense linear-algebra kernels that the
// sketching algorithms depend on: a row-major matrix type, parallel
// blocked matrix multiplication, Householder QR, a tridiagonal-QL
// symmetric eigensolver, a one-sided Jacobi SVD, and a Gram-trick thin
// SVD specialized for the short-and-wide buffers that Frequent
// Directions rotates.
//
// The package replaces the NumPy/LAPACK substrate used by the paper's
// reference implementation. It is written against the shapes that
// actually occur in the pipeline — buffers with a few hundred rows and
// up to millions of columns — and never materializes d×d intermediates.
package mat

import (
	"fmt"
	"math"

	"arams/internal/rng"
)

// Matrix is a dense row-major matrix. Rows and Cols give its shape;
// element (i, j) is stored at Data[i*Stride+j]. For matrices created by
// this package Stride == Cols, but views returned by Rows share the
// backing array of their parent.
type Matrix struct {
	RowsN  int
	ColsN  int
	Stride int
	Data   []float64
}

// New returns a zeroed r×c matrix.
func New(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %d×%d", r, c))
	}
	return &Matrix{RowsN: r, ColsN: c, Stride: c, Data: make([]float64, r*c)}
}

// FromRows builds a matrix from a slice of equal-length rows, copying
// the data.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	m := New(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			panic("mat: ragged rows in FromRows")
		}
		copy(m.Row(i), row)
	}
	return m
}

// FromData wraps data as an r×c matrix without copying. len(data) must
// be r*c.
func FromData(r, c int, data []float64) *Matrix {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: FromData length %d != %d×%d", len(data), r, c))
	}
	return &Matrix{RowsN: r, ColsN: c, Stride: c, Data: data}
}

// Dims returns the matrix shape.
func (m *Matrix) Dims() (r, c int) { return m.RowsN, m.ColsN }

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Stride+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Stride+j] = v }

// Row returns row i as a slice sharing the matrix storage.
func (m *Matrix) Row(i int) []float64 {
	return m.Data[i*m.Stride : i*m.Stride+m.ColsN]
}

// Rows returns a view of rows [i, j) sharing storage with m. An empty
// range is a 0×Cols view at any stride.
func (m *Matrix) Rows(i, j int) *Matrix {
	if i < 0 || j < i || j > m.RowsN {
		panic(fmt.Sprintf("mat: row range [%d,%d) out of %d", i, j, m.RowsN))
	}
	if i == j {
		// A strided view's data ends ColsN past its last row's start, not
		// a whole stride, so i*Stride can lie past the end of it.
		return &Matrix{ColsN: m.ColsN, Stride: m.Stride, Data: m.Data[:0]}
	}
	return &Matrix{
		RowsN:  j - i,
		ColsN:  m.ColsN,
		Stride: m.Stride,
		Data:   m.Data[i*m.Stride : i*m.Stride+(j-i-1)*m.Stride+m.ColsN],
	}
}

// colView returns a view of columns [lo, hi) sharing storage with m —
// by value, so the kernels' per-chunk views stay on the stack.
func (m *Matrix) colView(lo, hi int) Matrix {
	v := Matrix{RowsN: m.RowsN, ColsN: hi - lo, Stride: m.Stride}
	if m.RowsN > 0 {
		v.Data = m.Data[lo : (m.RowsN-1)*m.Stride+hi]
	}
	return v
}

// Clone returns a deep copy of m with compact stride.
func (m *Matrix) Clone() *Matrix {
	if m.Stride == m.ColsN {
		// make(len(src)) followed by copy from src compiles to one
		// allocation that is not zeroed before it is overwritten.
		src := m.Data[:m.RowsN*m.ColsN]
		data := make([]float64, len(src))
		copy(data, src)
		return FromData(m.RowsN, m.ColsN, data)
	}
	out := New(m.RowsN, m.ColsN)
	for i := 0; i < m.RowsN; i++ {
		copy(out.Row(i), m.Row(i))
	}
	return out
}

// Zero sets every element of m to zero.
func (m *Matrix) Zero() {
	for i := 0; i < m.RowsN; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = 0
		}
	}
}

// T returns the transpose of m as a newly allocated matrix.
func (m *Matrix) T() *Matrix {
	out := New(m.ColsN, m.RowsN)
	const bs = 64
	for ib := 0; ib < m.RowsN; ib += bs {
		iEnd := min(ib+bs, m.RowsN)
		for jb := 0; jb < m.ColsN; jb += bs {
			jEnd := min(jb+bs, m.ColsN)
			for i := ib; i < iEnd; i++ {
				row := m.Row(i)
				for j := jb; j < jEnd; j++ {
					out.Data[j*out.Stride+i] = row[j]
				}
			}
		}
	}
	return out
}

// Scale multiplies every element of m by s in place.
func (m *Matrix) Scale(s float64) {
	for i := 0; i < m.RowsN; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] *= s
		}
	}
}

// Add accumulates a into m in place. Shapes must match.
func (m *Matrix) Add(a *Matrix) {
	if m.RowsN != a.RowsN || m.ColsN != a.ColsN {
		panic("mat: Add shape mismatch")
	}
	for i := 0; i < m.RowsN; i++ {
		dst, src := m.Row(i), a.Row(i)
		for j := range dst {
			dst[j] += src[j]
		}
	}
}

// Sub subtracts a from m in place. Shapes must match.
func (m *Matrix) Sub(a *Matrix) {
	if m.RowsN != a.RowsN || m.ColsN != a.ColsN {
		panic("mat: Sub shape mismatch")
	}
	for i := 0; i < m.RowsN; i++ {
		dst, src := m.Row(i), a.Row(i)
		for j := range dst {
			dst[j] -= src[j]
		}
	}
}

// FrobeniusNorm returns ‖m‖_F.
func (m *Matrix) FrobeniusNorm() float64 {
	return math.Sqrt(m.FrobeniusNormSq())
}

// FrobeniusNormSq returns ‖m‖_F², accumulated in a numerically safe
// scaled form to avoid overflow for very large entries.
func (m *Matrix) FrobeniusNormSq() float64 {
	var sum float64
	for i := 0; i < m.RowsN; i++ {
		row := m.Row(i)
		for _, v := range row {
			sum += v * v
		}
	}
	return sum
}

// MaxAbs returns the largest absolute element value of m (0 for empty).
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for i := 0; i < m.RowsN; i++ {
		for _, v := range m.Row(i) {
			if a := math.Abs(v); a > mx {
				mx = a
			}
		}
	}
	return mx
}

// Equal reports whether m and a have the same shape and all elements
// within tol of each other.
func (m *Matrix) Equal(a *Matrix, tol float64) bool {
	if m.RowsN != a.RowsN || m.ColsN != a.ColsN {
		return false
	}
	for i := 0; i < m.RowsN; i++ {
		x, y := m.Row(i), a.Row(i)
		for j := range x {
			if math.Abs(x[j]-y[j]) > tol {
				return false
			}
		}
	}
	return true
}

// HasNaN reports whether any element of m is NaN or infinite.
func (m *Matrix) HasNaN() bool {
	for i := 0; i < m.RowsN; i++ {
		for _, v := range m.Row(i) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
	}
	return false
}

// String formats small matrices for debugging; large matrices are
// summarized by shape.
func (m *Matrix) String() string {
	if m.RowsN*m.ColsN > 64 {
		return fmt.Sprintf("Matrix(%d×%d)", m.RowsN, m.ColsN)
	}
	s := ""
	for i := 0; i < m.RowsN; i++ {
		s += fmt.Sprintf("%8.4f\n", m.Row(i))
	}
	return s
}

// RandGaussian fills a new r×c matrix with independent N(0,1) entries.
func RandGaussian(r, c int, g *rng.RNG) *Matrix {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = g.Norm()
	}
	return m
}

// RandOrthonormalCols returns an r×c matrix (r >= c) with orthonormal
// columns, distributed with Haar measure, generated by the QR
// decomposition of a Gaussian matrix with the sign convention of
// Mezzadri (2007) — the method the paper cites from Genz (2000).
func RandOrthonormalCols(r, c int, g *rng.RNG) *Matrix {
	if r < c {
		panic("mat: RandOrthonormalCols needs r >= c")
	}
	a := RandGaussian(r, c, g)
	q, rr := QR(a)
	// Fix signs so the distribution is Haar: multiply column j of Q by
	// sign(R[j][j]).
	for j := 0; j < c; j++ {
		if rr.At(j, j) < 0 {
			for i := 0; i < r; i++ {
				q.Set(i, j, -q.At(i, j))
			}
		}
	}
	return q
}

// Eye returns the n×n identity matrix.
func Eye(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
