// Package knn provides exact k-nearest-neighbor search for the UMAP,
// ABOD and HDBSCAN stages. There is one engine: a dense scan of the
// candidate rows through a typed bounded k-selection. BruteForce runs
// it for every row of a matrix on the shared worker pool; Nearest runs
// it for one query point (the out-of-sample UMAP transform). On the
// ≤100-dimensional, few-thousand-row point sets the pipeline produces
// the scan is faster than building and walking an index.
package knn

import (
	"math"

	"arams/internal/mat"
)

// Neighbor is one kNN result: the index of the neighbor point and its
// Euclidean distance.
type Neighbor struct {
	Index int
	Dist  float64
}

// Graph holds the k nearest neighbors of every point, excluding the
// point itself, sorted by (distance, index) ascending: exactly
// equidistant neighbors appear in index order, and when more than k
// points tie for the last place the lowest indices are kept. The
// comparison is made on the squared distance, before the square root.
type Graph struct {
	K         int
	Neighbors [][]Neighbor // [n][k]
}

// Distance returns the Euclidean distance between rows i and j of x.
func Distance(x *mat.Matrix, i, j int) float64 {
	return math.Sqrt(DistSq(x.Row(i), x.Row(j)))
}

// DistSq returns the squared Euclidean distance between two vectors.
func DistSq(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// bruteChunk is the fewest rows of a BruteForce one pool task takes.
const bruteChunk = 16

// BruteForce builds the exact kNN graph of the rows of x, splitting the
// outer loop across the shared worker pool. k is clamped to n−1.
func BruteForce(x *mat.Matrix, k int) *Graph {
	n := x.RowsN
	if k >= n {
		k = n - 1
	}
	if k < 1 {
		return &Graph{K: 0, Neighbors: make([][]Neighbor, n)}
	}
	g := &Graph{K: k, Neighbors: make([][]Neighbor, n)}
	slab := make([]Neighbor, n*k)
	mat.ParallelFor(n, bruteChunk, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			g.Neighbors[i] = Nearest(x, x.Row(i), k, i, slab[i*k:(i+1)*k:(i+1)*k])
		}
	})
	return g
}

// Nearest returns the k rows of x nearest to q, skipping row exclude
// (pass −1 to keep every row; pass i when q is row i of x), in the
// order Graph documents. The result has fewer than k entries only when
// x has fewer candidate rows. It is written into buf when buf has room
// for k entries, so a caller querying in a loop allocates once.
func Nearest(x *mat.Matrix, q []float64, k, exclude int, buf []Neighbor) []Neighbor {
	if k <= 0 {
		return nil
	}
	if cap(buf) < k {
		buf = make([]Neighbor, 0, k)
	}
	// nb holds the best candidates so far in ascending order. Rows are
	// visited in index order and a candidate moves ahead only of
	// strictly farther entries, so ties stay in index order.
	nb := buf[:0]
	for j := 0; j < x.RowsN; j++ {
		if j == exclude {
			continue
		}
		d := DistSq(q, x.Row(j))
		if len(nb) < k {
			nb = nb[:len(nb)+1]
		} else if !(d < nb[k-1].Dist) {
			continue
		}
		p := len(nb) - 1
		for ; p > 0 && d < nb[p-1].Dist; p-- {
			nb[p] = nb[p-1]
		}
		nb[p] = Neighbor{Index: j, Dist: d}
	}
	for t := range nb {
		nb[t].Dist = math.Sqrt(nb[t].Dist)
	}
	return nb
}
