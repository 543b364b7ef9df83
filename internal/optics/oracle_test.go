package optics

import (
	"cmp"
	"container/heap"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"arams/internal/knn"
	"arams/internal/mat"
	"arams/internal/rng"
)

// seedHeap is the oracle's priority queue: (reachability, index)
// ascending, stale entries skipped on pop.
type seedHeap [][2]float64

func (h seedHeap) Len() int { return len(h) }
func (h seedHeap) Less(i, j int) bool {
	return h[i][0] < h[j][0] || (h[i][0] == h[j][0] && h[i][1] < h[j][1])
}
func (h seedHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *seedHeap) Push(x any)   { *h = append(*h, x.([2]float64)) }
func (h *seedHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// oracleRun is the OPTICS this package ran before the dense pass, minus
// the VP-tree: every point's other points within maxEps sorted by
// distance, core distance read off that list, seeds in a container/heap.
func oracleRun(x *mat.Matrix, minPts int, maxEps float64) *Result {
	n := x.RowsN
	minPts = max(minPts, 2)
	res := &Result{Order: []int{}, Reachability: make([]float64, n), CoreDist: make([]float64, n)}
	for i := 0; i < n; i++ {
		res.Reachability[i], res.CoreDist[i] = math.Inf(1), math.Inf(1)
	}
	processed := make([]bool, n)
	seeds := &seedHeap{}
	visit := func(p int) {
		processed[p] = true
		res.Order = append(res.Order, p)
		var nbs []knn.Neighbor
		for j := 0; j < n; j++ {
			if d := math.Sqrt(knn.DistSq(x.Row(p), x.Row(j))); j != p && d <= maxEps {
				nbs = append(nbs, knn.Neighbor{Index: j, Dist: d})
			}
		}
		slices.SortFunc(nbs, func(a, b knn.Neighbor) int { return cmp.Compare(a.Dist, b.Dist) })
		if len(nbs) < minPts-1 || math.IsInf(nbs[minPts-2].Dist, 1) {
			return
		}
		cd := nbs[minPts-2].Dist
		res.CoreDist[p] = cd
		for _, nb := range nbs {
			if r := math.Max(cd, nb.Dist); !processed[nb.Index] && r < res.Reachability[nb.Index] {
				res.Reachability[nb.Index] = r
				heap.Push(seeds, [2]float64{r, float64(nb.Index)})
			}
		}
	}
	for start := 0; start < n; start++ {
		if !processed[start] {
			visit(start)
		}
		for seeds.Len() > 0 {
			it := heap.Pop(seeds).([2]float64)
			if q := int(it[1]); !processed[q] && it[0] == res.Reachability[q] {
				visit(q)
			}
		}
	}
	return res
}

// oraclePoints is n points in 2-D: two Gaussian blobs, then every fifth
// point a copy of its predecessor and every seventh on the lattice line
// y = 2x (exact ties in distance, collinear triples).
func oraclePoints(n int, seed uint64) *mat.Matrix {
	g := rng.New(seed)
	x := mat.New(n, 2)
	for i := 0; i < n; i++ {
		c := float64(i%2) * 6
		x.Set(i, 0, c+g.Norm())
		x.Set(i, 1, c+g.Norm())
		switch {
		case i%5 == 4:
			copy(x.Row(i), x.Row(i-1))
		case i%7 == 0:
			x.Set(i, 0, float64(i%11))
			x.Set(i, 1, 2*float64(i%11))
		}
	}
	return x
}

func sameFloats(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) })
}

// TestRunMatchesOracle holds the dense Run to the previous algorithm
// bit for bit: same ordering, same reachability, same core distances.
func TestRunMatchesOracle(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 64, 512, 1024} {
		if n > 512 && testing.Short() {
			continue
		}
		x := oraclePoints(n, uint64(n)+1)
		for _, eps := range []float64{math.Inf(1), 0.4, 2.5} {
			for _, minPts := range []int{2, 5, n + 1} {
				got, want := Run(x, minPts, eps), oracleRun(x, minPts, eps)
				name := fmt.Sprintf("n=%d eps=%v minPts=%d", n, eps, minPts)
				if !slices.Equal(got.Order, want.Order) {
					t.Errorf("%s: Order differs", name)
				}
				if !sameFloats(got.Reachability, want.Reachability) {
					t.Errorf("%s: Reachability differs", name)
				}
				if !sameFloats(got.CoreDist, want.CoreDist) {
					t.Errorf("%s: CoreDist differs", name)
				}
			}
		}
	}
}

// TestRunAllocatesLinearMemory: the result and three O(n) scratch
// slices, nothing per neighbor query (the tree walk allocated ≈12.8 MB
// here).
func TestRunAllocatesLinearMemory(t *testing.T) {
	x := oraclePoints(512, 3)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := Run(x, 5, math.Inf(1))
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("Run on 512x2 allocated %d B, want < 64 KiB", got)
	}
	if len(res.Order) != 512 {
		t.Fatalf("ordering length %d", len(res.Order))
	}
}
