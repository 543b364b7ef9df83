package knn

import (
	"math"
	"slices"
	"sort"
	"testing"

	"arams/internal/mat"
	"arams/internal/rng"
)

func points(n, d int, seed uint64) *mat.Matrix {
	return mat.RandGaussian(n, d, rng.New(seed))
}

// naiveNearest computes the reference answer by full sort on
// (squared distance, index); exclude < 0 keeps every row.
func naiveNearest(x *mat.Matrix, q []float64, k, exclude int) []Neighbor {
	var all []Neighbor
	for j := 0; j < x.RowsN; j++ {
		if j != exclude {
			all = append(all, Neighbor{Index: j, Dist: DistSq(q, x.Row(j))})
		}
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].Dist < all[b].Dist })
	all = all[:min(k, len(all))]
	for i := range all {
		all[i].Dist = math.Sqrt(all[i].Dist)
	}
	return all
}

func naiveKNN(x *mat.Matrix, i, k int) []Neighbor { return naiveNearest(x, x.Row(i), k, i) }

// sameNeighbors is exact: the order of equidistant neighbors is
// specified, so indices and distances must both agree.
func sameNeighbors(a, b []Neighbor) bool { return slices.Equal(a, b) }

func TestBruteForceMatchesNaive(t *testing.T) {
	x := points(60, 5, 1)
	g := BruteForce(x, 7)
	if g.K != 7 {
		t.Fatalf("K = %d", g.K)
	}
	for i := 0; i < x.RowsN; i++ {
		want := naiveKNN(x, i, 7)
		if !sameNeighbors(g.Neighbors[i], want) {
			t.Fatalf("point %d: %v vs %v", i, g.Neighbors[i], want)
		}
	}
}

func TestBruteForceSortedAscending(t *testing.T) {
	x := points(40, 3, 2)
	g := BruteForce(x, 5)
	for i, nbs := range g.Neighbors {
		for j := 1; j < len(nbs); j++ {
			if nbs[j].Dist < nbs[j-1].Dist {
				t.Fatalf("point %d neighbors not sorted", i)
			}
		}
	}
}

func TestBruteForceClampsK(t *testing.T) {
	x := points(4, 2, 3)
	g := BruteForce(x, 10)
	if g.K != 3 {
		t.Fatalf("K = %d, want 3", g.K)
	}
	for i, nbs := range g.Neighbors {
		if len(nbs) != 3 {
			t.Fatalf("point %d has %d neighbors", i, len(nbs))
		}
	}
}

func TestBruteForceNoSelf(t *testing.T) {
	x := points(30, 4, 4)
	g := BruteForce(x, 6)
	for i, nbs := range g.Neighbors {
		for _, nb := range nbs {
			if nb.Index == i {
				t.Fatalf("point %d is its own neighbor", i)
			}
		}
	}
}

func TestNearestMatchesNaive(t *testing.T) {
	x := points(120, 2, 5)
	buf := make([]Neighbor, 0, 8)
	for i := 0; i < x.RowsN; i++ {
		got := Nearest(x, x.Row(i), 8, i, buf)
		if !sameNeighbors(got, naiveKNN(x, i, 8)) {
			t.Fatalf("point %d: Nearest disagrees with the naive sort", i)
		}
		if &got[0] != &buf[:1][0] {
			t.Fatalf("point %d: Nearest did not reuse the caller's buffer", i)
		}
	}
}

func TestNearestQueryPoint(t *testing.T) {
	x := points(80, 3, 6)
	q := []float64{0.1, -0.2, 0.3}
	got := Nearest(x, q, 5, -1, nil)
	if want := naiveNearest(x, q, 5, -1); !sameNeighbors(got, want) {
		t.Fatalf("query wrong: %v vs %v", got, want)
	}
	if n := len(Nearest(x, q, 200, -1, nil)); n != 80 {
		t.Fatalf("k beyond the row count returned %d neighbors, want all 80", n)
	}
	if Nearest(x, q, 0, -1, nil) != nil {
		t.Fatal("k = 0 returned neighbors")
	}
}

func TestNearestKeepsSelfUnlessExcluded(t *testing.T) {
	x := points(100, 2, 7)
	kept := Nearest(x, x.Row(0), 10, -1, nil)
	if kept[0] != (Neighbor{Index: 0, Dist: 0}) {
		t.Fatalf("stored query row not its own nearest neighbor: %v", kept[0])
	}
	dropped := Nearest(x, x.Row(0), 10, 0, nil)
	for i, nb := range dropped {
		if nb.Index == 0 {
			t.Fatal("excluded row returned")
		}
		if i > 0 && nb.Dist < dropped[i-1].Dist {
			t.Fatal("results not sorted")
		}
	}
	// Excluding the row shifts the list by one.
	if !sameNeighbors(kept[1:], dropped[:9]) {
		t.Fatalf("exclude changed more than the excluded row: %v vs %v", kept, dropped)
	}
}

func TestKnnDuplicatePoints(t *testing.T) {
	// Duplicate points (distance 0) must be handled.
	x := mat.FromRows([][]float64{{1, 1}, {1, 1}, {2, 2}, {3, 3}})
	g := BruteForce(x, 2)
	if g.Neighbors[0][0].Dist != 0 {
		t.Fatalf("duplicate distance = %v", g.Neighbors[0][0].Dist)
	}
	if nb := Nearest(x, x.Row(0), 2, 0, nil); nb[0] != (Neighbor{Index: 1, Dist: 0}) {
		t.Fatalf("Nearest missed duplicate: %v", nb)
	}
	// Exact ties are ordered by index, and at the k-th place the lowest
	// indices win: the center of a square sees its four corners at one
	// distance, a corner sees its two adjacent corners at another.
	sq := mat.FromRows([][]float64{{1, 1}, {0, 0}, {2, 0}, {2, 2}, {0, 2}, {1, 1}})
	for k := 1; k <= 5; k++ {
		g := BruteForce(sq, k)
		for i := 0; i < sq.RowsN; i++ {
			if !sameNeighbors(g.Neighbors[i], naiveKNN(sq, i, k)) {
				t.Fatalf("k=%d point %d: %v, want (distance, index) order %v", k, i, g.Neighbors[i], naiveKNN(sq, i, k))
			}
		}
	}
	var idx []int
	for _, nb := range BruteForce(sq, 5).Neighbors[0] {
		idx = append(idx, nb.Index)
	}
	if want := []int{5, 1, 2, 3, 4}; !slices.Equal(idx, want) {
		t.Fatalf("center's neighbors %v, want %v", idx, want)
	}
}

func TestSinglePoint(t *testing.T) {
	x := points(1, 3, 8)
	g := BruteForce(x, 5)
	if g.K != 0 || len(g.Neighbors[0]) != 0 {
		t.Fatalf("single point graph: K=%d", g.K)
	}
}

func TestEmptyMatrix(t *testing.T) {
	g := BruteForce(mat.New(0, 3), 5)
	if len(g.Neighbors) != 0 {
		t.Fatal("empty input produced neighbors")
	}
}
