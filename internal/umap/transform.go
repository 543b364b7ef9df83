package umap

import (
	"arams/internal/knn"
	"arams/internal/mat"
	"arams/internal/rng"
)

// Model retains the training data and its embedding so that new
// out-of-sample points can be placed into the existing map without
// refitting — what a live monitor does when new shots arrive between
// full refreshes.
type Model struct {
	cfg   Config
	train *mat.Matrix
	emb   *mat.Matrix
	curve *curve
}

// FitModel fits UMAP on x and returns a reusable model.
func FitModel(x *mat.Matrix, cfg Config) *Model {
	m := fit(x, cfg)
	m.train = x.Clone()
	return m
}

// Embedding returns the training embedding (shared storage).
func (m *Model) Embedding() *mat.Matrix { return m.emb }

// InputDim returns the feature dimension the model was fitted on;
// Transform panics on rows of any other width, so callers reusing a
// cached model check this first.
func (m *Model) InputDim() int { return m.train.ColsN }

// Transform places the rows of x into the fitted embedding: each new
// point starts at the distance-weighted mean of its training
// neighbors' embedded positions and is refined by a short SGD with
// attraction toward those neighbors (training positions stay fixed,
// as in the reference implementation's transform).
func (m *Model) Transform(x *mat.Matrix) *mat.Matrix {
	if x.ColsN != m.train.ColsN {
		panic("umap: Transform dimension mismatch")
	}
	n := x.RowsN
	dim := m.emb.ColsN
	out := mat.New(n, dim)
	if n == 0 {
		return out
	}
	k := m.cfg.NNeighbors
	if k > m.train.RowsN {
		k = m.train.RowsN
	}
	g := rng.New(m.cfg.Seed + 0x51ed270b)

	type anchor struct {
		idx    int
		weight float64
	}
	anchors := make([][]anchor, n)
	slab := make([]anchor, n*k)
	nbs := make([]knn.Neighbor, 0, k)
	for i := 0; i < n; i++ {
		nbs = knn.Nearest(m.train, x.Row(i), k, -1, nbs)
		// Weights: smooth inverse distance, normalized.
		var sum float64
		as := slab[i*k : i*k+len(nbs)]
		for j, nb := range nbs {
			w := 1 / (nb.Dist + 1e-10)
			as[j] = anchor{idx: nb.Index, weight: w}
			sum += w
		}
		row := out.Row(i)
		for j := range as {
			as[j].weight /= sum
			e := m.emb.Row(as[j].idx)
			for d := 0; d < dim; d++ {
				row[d] += as[j].weight * e[d]
			}
		}
		anchors[i] = as
	}

	// Refinement: attraction toward anchors, repulsion from random
	// training points; training embedding is frozen.
	epochs := m.cfg.NEpochs / 3
	if epochs < 30 {
		epochs = 30
	}
	for epoch := 1; epoch <= epochs; epoch++ {
		alpha := learningRate * (1 - float64(epoch)/float64(epochs))
		if alpha < 1e-4 {
			alpha = 1e-4
		}
		for i := 0; i < n; i++ {
			pt := out.Row(i)
			for _, an := range anchors[i] {
				target := m.emb.Row(an.idx)
				d2 := distSq(pt, target)
				if d2 > 0 {
					coeff := m.curve.attract(d2)
					for d := 0; d < dim; d++ {
						pt[d] += alpha * an.weight * clip(coeff*(pt[d]-target[d]))
					}
				}
			}
			// One negative sample per epoch keeps new points from
			// collapsing onto dense regions they do not belong to.
			other := m.emb.Row(g.Intn(m.emb.RowsN))
			d2 := distSq(pt, other)
			if d2 > 0 {
				coeff := m.curve.repel(d2)
				for d := 0; d < dim; d++ {
					pt[d] += alpha * clip(coeff*(pt[d]-other[d]))
				}
			}
		}
	}
	return out
}
