// Package abod implements FastABOD — the angle-based outlier detection
// of Kriegel, Schubert & Zimek (2008) restricted to k-nearest-neighbor
// pairs — which the paper proposes for anomaly detection on the 2-D
// latent embedding ("fast Angle-Based-Outlier-Detection methods").
//
// The angle-based outlier factor (ABOF) of a point is the weighted
// variance, over pairs of neighbors (B, C), of ⟨AB, AC⟩/(‖AB‖²‖AC‖²),
// weighted by 1/(‖AB‖·‖AC‖). Points deep inside a cluster see their
// neighbors at widely varying angles (large variance); outliers see all
// other points within a narrow cone (small variance), so LOW scores
// mark outliers.
package abod

import (
	"math"
	"sort"

	"arams/internal/knn"
	"arams/internal/mat"
)

// scoreChunk is the fewest rows of a Scores one pool task takes.
const scoreChunk = 16

// Scores returns the ABOF of every row of x using k-nearest-neighbor
// pairs. Lower means more anomalous. Points with undefined ABOF
// (duplicates of all their neighbors) receive 0, the most anomalous
// score.
func Scores(x *mat.Matrix, k int) []float64 {
	n := x.RowsN
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	if k >= n {
		k = n - 1
	}
	if k < 2 {
		// Angles need at least two neighbors.
		return out
	}
	g := knn.BruteForce(x, k)
	mat.ParallelFor(n, scoreChunk, func(lo, hi int) {
		ab := make([]float64, x.ColsN)
		ac := make([]float64, x.ColsN)
		for i := lo; i < hi; i++ {
			out[i] = abof(x, i, g.Neighbors[i], ab, ac)
		}
	})
	return out
}

// abof computes the angle-based outlier factor of point i over its
// neighbor list.
func abof(x *mat.Matrix, i int, nbs []knn.Neighbor, ab, ac []float64) float64 {
	xi := x.Row(i)
	var sw, swv, swv2 float64
	for a := 0; a < len(nbs); a++ {
		xa := x.Row(nbs[a].Index)
		for j := range ab {
			ab[j] = xa[j] - xi[j]
		}
		na2 := mat.Norm2Sq(ab)
		if na2 == 0 {
			continue
		}
		for b := a + 1; b < len(nbs); b++ {
			xb := x.Row(nbs[b].Index)
			for j := range ac {
				ac[j] = xb[j] - xi[j]
			}
			nb2 := mat.Norm2Sq(ac)
			if nb2 == 0 {
				continue
			}
			dot := mat.Dot(ab, ac)
			w := 1 / math.Sqrt(na2*nb2)
			v := dot / (na2 * nb2)
			sw += w
			swv += w * v
			swv2 += w * v * v
		}
	}
	if sw == 0 {
		return 0
	}
	mean := swv / sw
	variance := swv2/sw - mean*mean
	if variance < 0 {
		return 0
	}
	return variance
}

// Outliers returns the indices of the ⌈contamination·n⌉ lowest-scoring
// points, ascending by score (most anomalous first).
func Outliers(scores []float64, contamination float64) []int {
	n := len(scores)
	m := int(math.Ceil(contamination * float64(n)))
	if m < 0 {
		m = 0
	}
	if m > n {
		m = n
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if scores[idx[a]] != scores[idx[b]] {
			return scores[idx[a]] < scores[idx[b]]
		}
		return idx[a] < idx[b]
	})
	return idx[:m]
}
