// Package stats provides the small statistical utilities the experiment
// harness and examples share: correlation coefficients, rank
// transforms, order statistics, and embedding trustworthiness.
package stats

import (
	"math"
	"sort"

	"arams/internal/knn"
	"arams/internal/mat"
)

// Mean returns the arithmetic mean (0 for an empty slice).
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// Pearson returns the Pearson correlation of two equal-length
// sequences; 0 when either is constant.
func Pearson(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("stats: Pearson length mismatch")
	}
	if len(a) == 0 {
		return 0
	}
	ma, mb := Mean(a), Mean(b)
	var cov, va, vb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

// Spearman returns the Spearman rank correlation of two equal-length
// sequences.
func Spearman(a, b []float64) float64 {
	return Pearson(Ranks(a), Ranks(b))
}

// Ranks returns the 0-based rank of each value (ties broken by
// position, matching a stable sort).
func Ranks(v []float64) []float64 {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
	out := make([]float64, len(v))
	for r, i := range idx {
		out[i] = float64(r)
	}
	return out
}

// Median returns the middle order statistic (upper median for even
// lengths; 0 for empty input). The input is not modified.
func Median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return Quantile(v, 0.5)
}

// Quantile returns the q-th order statistic (nearest-rank), q in
// [0, 1]. The input is not modified.
func Quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	cp := append([]float64(nil), v...)
	sort.Float64s(cp)
	i := int(q * float64(len(cp)))
	if i >= len(cp) {
		i = len(cp) - 1
	}
	if i < 0 {
		i = 0
	}
	return cp[i]
}

// Trustworthiness is Venna & Kaski's measure of whether the neighbours
// an embedding shows are real: for every row i, each of its k nearest
// neighbours in low that is not among its k nearest in high is charged
// its rank in high minus k, and
//
//	T(k) = 1 − 2/(nk(2n−3k−1)) · Σᵢ Σⱼ (r(i,j) − k).
//
// It is 1 when every low-space neighbourhood is a high-space one and
// about 0.5 for an embedding unrelated to the data. Neighbours and ranks
// follow knn.Graph's (distance, index) order. It panics unless
// 0 < k < n/2, where the normaliser holds.
func Trustworthiness(high, low *mat.Matrix, k int) float64 {
	n := high.RowsN
	if low.RowsN != n || k < 1 || 2*k >= n {
		panic("stats: Trustworthiness needs equal row counts and 0 < k < n/2")
	}
	hg, lg := knn.BruteForce(high, k), knn.BruteForce(low, k)
	dist := make([]float64, n)
	var penalty int
	for i := 0; i < n; i++ {
		for l := range dist {
			dist[l] = knn.DistSq(high.Row(i), high.Row(l))
		}
		inHigh := func(j int) bool {
			for _, nb := range hg.Neighbors[i] {
				if nb.Index == j {
					return true
				}
			}
			return false
		}
		for _, nb := range lg.Neighbors[i] {
			j := nb.Index
			if inHigh(j) {
				continue
			}
			rank := 1
			for l, d := range dist {
				if l != i && (d < dist[j] || d == dist[j] && l < j) {
					rank++
				}
			}
			penalty += rank - k
		}
	}
	return 1 - 2*float64(penalty)/float64(n*k*(2*n-3*k-1))
}
