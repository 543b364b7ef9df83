package umap

import (
	"math"

	"arams/internal/mat"
	"arams/internal/rng"
)

// FitAB fits the curve 1/(1+a·x^{2b}) to the target membership
// function ψ(x) = 1 for x ≤ minDist, exp(−(x−minDist)/spread)
// otherwise, by Gauss–Newton least squares on a dense grid — the same
// procedure as the reference implementation's curve_fit call. It
// returns the (a, b) pair used by the layout gradients.
func FitAB(spread, minDist float64) (a, b float64) {
	const samples = 300
	xs := make([]float64, samples)
	ys := make([]float64, samples)
	for i := 0; i < samples; i++ {
		x := 3 * spread * float64(i+1) / samples
		xs[i] = x
		if x <= minDist {
			ys[i] = 1
		} else {
			ys[i] = math.Exp(-(x - minDist) / spread)
		}
	}
	// Gauss–Newton on residual r = y − 1/(1+a x^{2b}).
	a, b = 1.0, 1.0
	for iter := 0; iter < 200; iter++ {
		var jtj00, jtj01, jtj11, jtr0, jtr1 float64
		for i := range xs {
			x2b := math.Pow(xs[i], 2*b)
			den := 1 + a*x2b
			f := 1 / den
			r := ys[i] - f
			// ∂f/∂a = −x^{2b}/den²; ∂f/∂b = −2a·ln(x)·x^{2b}/den².
			dfa := -x2b / (den * den)
			dfb := -2 * a * math.Log(xs[i]) * x2b / (den * den)
			jtj00 += dfa * dfa
			jtj01 += dfa * dfb
			jtj11 += dfb * dfb
			jtr0 += dfa * r
			jtr1 += dfb * r
		}
		// Solve the 2×2 normal equations with Levenberg damping.
		lambda := 1e-6 * (jtj00 + jtj11)
		det := (jtj00+lambda)*(jtj11+lambda) - jtj01*jtj01
		if det == 0 {
			break
		}
		da := ((jtj11+lambda)*jtr0 - jtj01*jtr1) / det
		db := ((jtj00+lambda)*jtr1 - jtj01*jtr0) / det
		a += da
		b += db
		if a < 1e-3 {
			a = 1e-3
		}
		if b < 1e-3 {
			b = 1e-3
		}
		if math.Abs(da)+math.Abs(db) < 1e-9 {
			break
		}
	}
	return a, b
}

// initEmbedding seeds the layout with the first NComponents principal
// components of the (centered) input, rescaled to a ±10 box — a
// deterministic alternative to the reference's spectral initialization
// with the same "start from global structure" effect.
func initEmbedding(x *mat.Matrix, cfg Config) *mat.Matrix {
	n, d := x.Dims()
	k := cfg.NComponents
	centered := x.Clone()
	means := make([]float64, d)
	for i := 0; i < n; i++ {
		row := centered.Row(i)
		for j, v := range row {
			means[j] += v
		}
	}
	for j := range means {
		means[j] /= float64(n)
	}
	for i := 0; i < n; i++ {
		row := centered.Row(i)
		for j := range row {
			row[j] -= means[j]
		}
	}
	emb := mat.New(n, k)
	// Principal directions via the Gram-trick SVD on the transpose
	// orientation (d is small after PCA projection): SVDGram(centeredᵀ)
	// factors the d×n matrix, so row j of vt has one entry per sample and
	// s[j]·vt[j] is the samples' score on principal component j.
	_, s, vt := mat.SVDGram(centered.T())
	g := rng.New(cfg.Seed)
	var scale float64
	if len(s) > 0 && s[0] > 0 {
		scale = 10 / s[0]
	}
	for i := 0; i < n; i++ {
		row := emb.Row(i)
		for j := 0; j < k; j++ {
			if j < vt.RowsN && scale > 0 {
				row[j] = vt.At(j, i) * s[j] * scale
			}
			// Tiny jitter breaks exact ties (duplicate points).
			row[j] += 1e-4 * g.Norm()
		}
	}
	return emb
}

// optimizeLayout runs the UMAP SGD: attractive updates along graph
// edges scheduled by weight, repulsive updates against uniformly
// sampled negative examples, with the learning rate annealed linearly.
func optimizeLayout(emb *mat.Matrix, fg *FuzzyGraph, cfg Config, c *curve) {
	nEdges := len(fg.Heads)
	if nEdges == 0 {
		return
	}
	dim := emb.ColsN
	g := rng.New(cfg.Seed + 0x9e3779b9)

	// Edge scheduling: an edge with weight w fires every
	// maxW/w epochs, so heavy edges dominate the attraction budget.
	maxW := fg.MaxWeight()
	epochsPerSample := make([]float64, nEdges)
	nextSample := make([]float64, nEdges)
	for e := range epochsPerSample {
		epochsPerSample[e] = maxW / fg.Weights[e]
		nextSample[e] = epochsPerSample[e]
	}
	negPerSample := make([]float64, nEdges)
	nextNeg := make([]float64, nEdges)
	for e := range negPerSample {
		negPerSample[e] = epochsPerSample[e] / float64(negativeSampleRate)
		nextNeg[e] = negPerSample[e]
	}

	for epoch := 1; epoch <= cfg.NEpochs; epoch++ {
		alpha := learningRate * (1 - float64(epoch)/float64(cfg.NEpochs))
		if alpha < 1e-4 {
			alpha = 1e-4
		}
		fe := float64(epoch)
		for e := 0; e < nEdges; e++ {
			if nextSample[e] > fe {
				continue
			}
			head := emb.Row(fg.Heads[e])
			tail := emb.Row(fg.Tails[e])
			d2 := distSq(head, tail)
			if d2 > 0 {
				coeff := c.attract(d2)
				for j := 0; j < dim; j++ {
					gd := clip(coeff * (head[j] - tail[j]))
					head[j] += alpha * gd
					tail[j] -= alpha * gd
				}
			}
			nextSample[e] += epochsPerSample[e]

			// Negative samples accumulated since this edge last fired.
			nNeg := int((fe - nextNeg[e]) / negPerSample[e])
			for t := 0; t < nNeg; t++ {
				oi := g.Intn(fg.N)
				if oi == fg.Heads[e] {
					continue // never repel a point from itself
				}
				other := emb.Row(oi)
				d2 := distSq(head, other)
				if d2 > 0 {
					coeff := c.repel(d2)
					for j := 0; j < dim; j++ {
						gd := clip(coeff * (head[j] - other[j]))
						head[j] += alpha * gd
					}
				} else {
					// Distinct but coincident pair: maximal kick, as in
					// the reference implementation.
					for j := 0; j < dim; j++ {
						head[j] += alpha * 4
					}
				}
			}
			nextNeg[e] += float64(nNeg) * negPerSample[e]
		}
	}
}

func distSq(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
