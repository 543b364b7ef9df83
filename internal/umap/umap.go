// Package umap implements Uniform Manifold Approximation and
// Projection (McInnes, Healy, Saul & Großberger 2018) — the 2-D
// visualization stage of the paper's pipeline. It follows the reference
// algorithm: exact kNN graph, smooth-kNN distance calibration, fuzzy
// simplicial set construction with probabilistic t-conorm
// symmetrization, and stochastic gradient descent on the cross-entropy
// layout objective with negative sampling.
//
// The implementation is deterministic for a fixed seed: the SGD loop is
// single-goroutine (the kNN stage, which dominates at pipeline sizes,
// is parallel), so repeated runs produce identical embeddings.
package umap

import (
	"math"
	"sync"

	"arams/internal/knn"
	"arams/internal/mat"
)

// Config holds UMAP hyperparameters; zero values select the reference
// defaults.
type Config struct {
	NNeighbors  int // default 15
	NComponents int // default 2
	NEpochs     int // default: 500 for n<10000, else 200
	Seed        uint64
}

// The layout's scalar hyperparameters are fixed at the reference
// defaults: the minimum embedded distance and spread that shape the
// attraction curve, the negative samples drawn per positive edge, and
// the initial SGD learning rate.
const (
	minDist            = 0.1
	spread             = 1.0
	negativeSampleRate = 5
	learningRate       = 1.0
)

func (c Config) withDefaults(n int) Config {
	if c.NNeighbors <= 0 {
		c.NNeighbors = 15
	}
	if c.NNeighbors >= n {
		c.NNeighbors = n - 1
	}
	if c.NComponents <= 0 {
		c.NComponents = 2
	}
	if c.NEpochs <= 0 {
		if n < 10000 {
			c.NEpochs = 500
		} else {
			c.NEpochs = 200
		}
	}
	return c
}

// FuzzyGraph is the symmetrized fuzzy simplicial set: a weighted
// undirected graph in coordinate (edge-list) form.
type FuzzyGraph struct {
	N       int
	Heads   []int
	Tails   []int
	Weights []float64
}

// smoothKNN computes, for each point, the local connectivity offset ρᵢ
// (distance to the nearest neighbor) and the bandwidth σᵢ solving
//
//	Σⱼ exp(−max(0, dᵢⱼ−ρᵢ)/σᵢ) = log₂(k)
//
// by bisection, exactly the smooth-kNN-distance calibration of the
// UMAP paper.
func smoothKNN(g *knn.Graph) (rho, sigma []float64) {
	n := len(g.Neighbors)
	rho = make([]float64, n)
	sigma = make([]float64, n)
	target := math.Log2(float64(g.K))
	if target <= 0 {
		target = 1e-3
	}
	const (
		tol      = 1e-5
		maxIters = 64
	)
	for i := 0; i < n; i++ {
		nbs := g.Neighbors[i]
		if len(nbs) == 0 {
			sigma[i] = 1
			continue
		}
		// ρ: smallest nonzero neighbor distance (duplicates give 0).
		for _, nb := range nbs {
			if nb.Dist > 0 {
				rho[i] = nb.Dist
				break
			}
		}
		lo, hi, mid := 0.0, math.Inf(1), 1.0
		for it := 0; it < maxIters; it++ {
			var psum float64
			for _, nb := range nbs {
				d := nb.Dist - rho[i]
				if d <= 0 {
					psum++
				} else {
					psum += math.Exp(-d / mid)
				}
			}
			if math.Abs(psum-target) < tol {
				break
			}
			if psum > target {
				hi = mid
				mid = (lo + hi) / 2
			} else {
				lo = mid
				if math.IsInf(hi, 1) {
					mid *= 2
				} else {
					mid = (lo + hi) / 2
				}
			}
		}
		// Bandwidth floor relative to the mean neighbor distance,
		// preventing degenerate σ for isolated points (reference
		// implementation's MIN_K_DIST_SCALE guard).
		var mean float64
		for _, nb := range nbs {
			mean += nb.Dist
		}
		mean /= float64(len(nbs))
		if rho[i] > 0 {
			if floor := 1e-3 * mean; mid < floor {
				mid = floor
			}
		}
		sigma[i] = mid
	}
	return rho, sigma
}

// BuildFuzzyGraph constructs the symmetrized fuzzy simplicial set from
// a kNN graph: directed memberships wᵢⱼ = exp(−max(0,dᵢⱼ−ρᵢ)/σᵢ),
// symmetrized by the probabilistic t-conorm W + Wᵀ − W∘Wᵀ.
func BuildFuzzyGraph(g *knn.Graph) *FuzzyGraph {
	n := len(g.Neighbors)
	rho, sigma := smoothKNN(g)
	member := func(i int, dist float64) float64 {
		d := dist - rho[i]
		if d > 0 && sigma[i] > 0 {
			return math.Exp(-d / sigma[i])
		}
		return 1
	}
	// Emit undirected edges in deterministic (point, neighbor) order so
	// the SGD schedule — and therefore the embedding — is reproducible
	// for a fixed seed. A point has at most k neighbors, so the reverse
	// membership wⱼᵢ is a scan of j's list, and a mutual pair was already
	// emitted from the lower-numbered side.
	var most int
	for _, nbs := range g.Neighbors {
		most += len(nbs)
	}
	fg := &FuzzyGraph{
		N:       n,
		Heads:   make([]int, 0, most),
		Tails:   make([]int, 0, most),
		Weights: make([]float64, 0, most),
	}
	for i := 0; i < n; i++ {
		for _, nb := range g.Neighbors[i] {
			j := nb.Index
			back := -1
			for r, rb := range g.Neighbors[j] {
				if rb.Index == i {
					back = r
					break
				}
			}
			if back >= 0 && j < i {
				continue
			}
			w := member(i, nb.Dist)
			var wT float64
			if back >= 0 {
				wT = member(j, g.Neighbors[j][back].Dist)
			}
			sym := w + wT - w*wT
			if sym <= 0 {
				continue
			}
			fg.Heads = append(fg.Heads, i)
			fg.Tails = append(fg.Tails, j)
			fg.Weights = append(fg.Weights, sym)
		}
	}
	return fg
}

// MaxWeight returns the largest edge weight (0 for an empty graph).
func (fg *FuzzyGraph) MaxWeight() float64 {
	var mx float64
	for _, w := range fg.Weights {
		if w > mx {
			mx = w
		}
	}
	return mx
}

// Fit computes the UMAP embedding of the rows of x.
func Fit(x *mat.Matrix, cfg Config) *mat.Matrix { return fit(x, cfg).emb }

// layoutCurve is the curve of the fixed spread and minDist, fitted and
// tabulated on the first fit and shared, read-only, by every model.
var layoutCurve = sync.OnceValue(func() *curve { return newCurve(FitAB(spread, minDist)) })

// fit is the one path behind Fit and FitModel: it resolves the defaults,
// and the model it returns borrows x as its training set.
func fit(x *mat.Matrix, cfg Config) *Model {
	n := x.RowsN
	cfg = cfg.withDefaults(max(n, 2))
	m := &Model{cfg: cfg, train: x, curve: layoutCurve()}
	if n < 2 {
		m.emb = mat.New(n, cfg.NComponents)
		return m
	}
	fg := BuildFuzzyGraph(knn.BruteForce(x, cfg.NNeighbors))
	m.emb = initEmbedding(x, cfg)
	optimizeLayout(m.emb, fg, cfg, m.curve)
	return m
}
