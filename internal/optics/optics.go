// Package optics implements the OPTICS density-based clustering
// algorithm (Ankerst, Breunig, Kriegel & Sander 1999) used as the final
// stage of the paper's pipeline, together with two cluster-extraction
// methods (DBSCAN-equivalent eps cut and ξ steep-area extraction) and a
// plain DBSCAN used for cross-validation in tests.
package optics

import (
	"math"

	"arams/internal/knn"
	"arams/internal/mat"
)

// Noise is the label assigned to unclustered points.
const Noise = -1

// Result holds the OPTICS ordering and the per-point reachability and
// core distances (indexed by original point index, not ordering
// position). Unreachable/undefined distances are +Inf.
type Result struct {
	Order        []int
	Reachability []float64
	CoreDist     []float64
}

// Run computes the OPTICS ordering of the rows of x with the given
// minPts and generating radius maxEps (use math.Inf(1) for unbounded,
// as the paper's visual analysis does).
//
// It is one dense pass: each point, when its turn comes, computes its
// row of n distances, reads its core distance off the minPts−1 smallest
// of them, relaxes every unprocessed point within maxEps and picks the
// next point by (reachability, index) in the same sweep. That is O(n²)
// time and O(n) memory for any maxEps. An index cannot do better at
// maxEps = ∞, the only value the pipeline passes, where every point is
// every other point's neighbor; minPts is assumed small (the core
// distance costs O(minPts) per candidate that enters it).
func Run(x *mat.Matrix, minPts int, maxEps float64) *Result {
	n := x.RowsN
	if minPts < 2 {
		minPts = 2
	}
	res := &Result{
		Order:        make([]int, 0, n),
		Reachability: make([]float64, n),
		CoreDist:     make([]float64, n),
	}
	for i := range res.Reachability {
		res.Reachability[i] = math.Inf(1)
		res.CoreDist[i] = math.Inf(1)
	}
	// m other points within maxEps make a point a core point (minPts
	// counts the point itself); nearest holds the m smallest distances
	// seen so far in p's row, ascending.
	m := minPts - 1
	nearest := make([]float64, 0, min(m, n))
	dist := make([]float64, n)
	processed := make([]bool, n)
	start := 0
	for p := -1; len(res.Order) < n; {
		if p < 0 {
			// No seed is reachable: the lowest unprocessed index starts
			// the next component.
			for processed[start] {
				start++
			}
			p = start
		}
		processed[p] = true
		res.Order = append(res.Order, p)
		xp := x.Row(p)
		nearest = nearest[:0]
		for j := 0; j < n; j++ {
			d := math.Sqrt(knn.DistSq(xp, x.Row(j)))
			dist[j] = d
			if j == p || !(d <= maxEps) {
				continue
			}
			if len(nearest) < m {
				nearest = nearest[:len(nearest)+1]
			} else if d >= nearest[m-1] {
				continue
			}
			t := len(nearest) - 1
			for ; t > 0 && d < nearest[t-1]; t-- {
				nearest[t] = nearest[t-1]
			}
			nearest[t] = d
		}
		core := math.Inf(1)
		if len(nearest) == m {
			core = nearest[m-1]
		}
		res.CoreDist[p] = core
		// Relax p's unprocessed neighbors and, in the same sweep, find
		// the seed to process next: the unprocessed point of least
		// (reachability, index) among those reached so far.
		relax := !math.IsInf(core, 1)
		next, best := -1, math.Inf(1)
		for j, d := range dist {
			if processed[j] {
				continue
			}
			if relax && d <= maxEps {
				if r := math.Max(core, d); r < res.Reachability[j] {
					res.Reachability[j] = r
				}
			}
			if res.Reachability[j] < best {
				next, best = j, res.Reachability[j]
			}
		}
		p = next
	}
	return res
}

// ExtractDBSCAN cuts the reachability plot at eps, producing labels
// equivalent to DBSCAN(eps, minPts) up to border-point assignment.
// Points with reachability > eps start a new cluster if their own core
// distance is ≤ eps, otherwise they are Noise.
func (r *Result) ExtractDBSCAN(eps float64) []int {
	labels := make([]int, len(r.Reachability))
	for i := range labels {
		labels[i] = Noise
	}
	cluster := -1
	for _, p := range r.Order {
		if r.Reachability[p] > eps {
			if r.CoreDist[p] <= eps {
				cluster++
				labels[p] = cluster
			}
			continue
		}
		if cluster >= 0 {
			labels[p] = cluster
		}
	}
	return labels
}

// ReachabilityInOrder returns the reachability plot: reachability
// distances arranged in the cluster ordering — the curve whose valleys
// are clusters. Plotting tools consume this directly.
func (r *Result) ReachabilityInOrder() []float64 {
	out := make([]float64, len(r.Order))
	for pos, p := range r.Order {
		out[pos] = r.Reachability[p]
	}
	return out
}

// NumClusters returns the number of distinct non-noise labels.
func NumClusters(labels []int) int {
	seen := map[int]bool{}
	for _, l := range labels {
		if l != Noise {
			seen[l] = true
		}
	}
	return len(seen)
}
