// Package pca projects data onto the latent space spanned by a matrix
// sketch's right singular vectors — the dimensionality-reduction stage
// between sketching and UMAP in the paper's pipeline (Fig. 4).
package pca

import "arams/internal/mat"

// Projector maps d-dimensional rows into a k-dimensional latent space
// defined by a basis of orthonormal rows (k×d), typically
// FrequentDirections.Basis(k).
type Projector struct {
	basis *mat.Matrix // k×d
}

// NewProjector wraps a k×d basis with orthonormal rows.
func NewProjector(basis *mat.Matrix) *Projector {
	if basis.RowsN == 0 {
		panic("pca: empty basis")
	}
	return &Projector{basis: basis}
}

// K returns the latent dimensionality.
func (p *Projector) K() int { return p.basis.RowsN }

// Project maps every row of x into latent space, returning an n×k
// matrix.
func (p *Projector) Project(x *mat.Matrix) *mat.Matrix {
	if x.ColsN != p.basis.ColsN {
		panic("pca: Project dimension mismatch")
	}
	return mat.MulABt(x, p.basis)
}

// ProjectRows is Project over float32 rows that need not share a backing
// array (the engine's window, read in place): the same n×k latent, bit
// for bit, as Project of the float64 matrix they widen to.
func (p *Projector) ProjectRows(rows [][]float32) *mat.Matrix {
	return mat.MulRowsABt(rows, p.basis)
}

// ExplainedVariance returns, for each latent component, the fraction of
// the data's total variance captured, computed from the projection of
// x. The fractions are in component order and sum to at most 1.
func (p *Projector) ExplainedVariance(x *mat.Matrix) []float64 {
	z := p.Project(x)
	total := x.FrobeniusNormSq()
	out := make([]float64, p.K())
	if total == 0 {
		return out
	}
	for j := 0; j < z.ColsN; j++ {
		var s float64
		for i := 0; i < z.RowsN; i++ {
			v := z.At(i, j)
			s += v * v
		}
		out[j] = s / total
	}
	return out
}
