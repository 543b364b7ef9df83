package optics

import (
	"arams/internal/knn"
	"arams/internal/mat"
)

// DBSCAN clusters the rows of x with the classic density-based
// algorithm (Ester et al. 1996). It serves as an independent
// cross-check for the OPTICS eps-cut extraction: the two must produce
// the same core-point clustering for identical (eps, minPts).
func DBSCAN(x *mat.Matrix, eps float64, minPts int) []int {
	n := x.RowsN
	labels := make([]int, n)
	for i := range labels {
		labels[i] = Noise
	}
	// neighborhood includes the point itself, matching the classic
	// |N_eps(p)| >= minPts core condition.
	neighborhood := func(i int) []int {
		var out []int
		for j := 0; j < n; j++ {
			if knn.Distance(x, i, j) <= eps {
				out = append(out, j)
			}
		}
		return out
	}
	visited := make([]bool, n)
	cluster := -1
	for i := 0; i < n; i++ {
		if visited[i] {
			continue
		}
		visited[i] = true
		nbs := neighborhood(i)
		if len(nbs) < minPts {
			continue // noise (may later become a border point)
		}
		cluster++
		labels[i] = cluster
		// Expand.
		queue := append([]int(nil), nbs...)
		for len(queue) > 0 {
			q := queue[0]
			queue = queue[1:]
			if labels[q] == Noise {
				labels[q] = cluster // border point
			}
			if visited[q] {
				continue
			}
			visited[q] = true
			labels[q] = cluster
			qnbs := neighborhood(q)
			if len(qnbs) >= minPts {
				queue = append(queue, qnbs...)
			}
		}
	}
	return labels
}

// ARI computes the Adjusted Rand Index between two labelings — the
// cluster-agreement score used to validate the Fig. 6 reproduction
// against the generator's ground truth. Noise points are treated as a
// singleton cluster each.
func ARI(a, b []int) float64 {
	if len(a) != len(b) {
		panic("optics: ARI length mismatch")
	}
	n := len(a)
	if n == 0 {
		return 1
	}
	// Remap noise to unique labels so it never spuriously agrees.
	ra := remapNoise(a)
	rb := remapNoise(b)
	// Contingency table.
	type cell struct{ x, y int }
	cont := map[cell]int{}
	ca := map[int]int{}
	cb := map[int]int{}
	for i := 0; i < n; i++ {
		cont[cell{ra[i], rb[i]}]++
		ca[ra[i]]++
		cb[rb[i]]++
	}
	comb2 := func(m int) float64 { return float64(m) * float64(m-1) / 2 }
	var sumCont, sumA, sumB float64
	for _, v := range cont {
		sumCont += comb2(v)
	}
	for _, v := range ca {
		sumA += comb2(v)
	}
	for _, v := range cb {
		sumB += comb2(v)
	}
	total := comb2(n)
	expected := sumA * sumB / total
	maxIdx := (sumA + sumB) / 2
	if maxIdx == expected {
		return 1
	}
	return (sumCont - expected) / (maxIdx - expected)
}

func remapNoise(labels []int) []int {
	out := make([]int, len(labels))
	next := 1 << 20
	for i, l := range labels {
		if l == Noise {
			out[i] = next
			next++
		} else {
			out[i] = l
		}
	}
	return out
}
