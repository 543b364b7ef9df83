package umap

import (
	"math"
	"testing"

	"arams/internal/knn"
	"arams/internal/mat"
	"arams/internal/rng"
)

func TestFitABKnownValues(t *testing.T) {
	// Reference implementation values for the default hyperparameters
	// (spread=1, min_dist=0.1): a ≈ 1.577, b ≈ 0.895.
	a, b := FitAB(1.0, 0.1)
	if math.Abs(a-1.577) > 0.05 {
		t.Errorf("a = %v, want ≈1.577", a)
	}
	if math.Abs(b-0.895) > 0.02 {
		t.Errorf("b = %v, want ≈0.895", b)
	}
}

func TestFitABCurveQuality(t *testing.T) {
	// The fitted curve must approximate the target membership function.
	for _, tc := range []struct{ spread, minDist float64 }{
		{1.0, 0.1}, {1.0, 0.5}, {2.0, 0.25},
	} {
		a, b := FitAB(tc.spread, tc.minDist)
		var maxErr float64
		for i := 1; i <= 100; i++ {
			x := 3 * tc.spread * float64(i) / 100
			var want float64
			if x <= tc.minDist {
				want = 1
			} else {
				want = math.Exp(-(x - tc.minDist) / tc.spread)
			}
			got := 1 / (1 + a*math.Pow(x, 2*b))
			if e := math.Abs(got - want); e > maxErr {
				maxErr = e
			}
		}
		if maxErr > 0.12 {
			t.Errorf("spread=%v minDist=%v: curve max error %v", tc.spread, tc.minDist, maxErr)
		}
	}
}

func TestSmoothKNNCalibration(t *testing.T) {
	g := rng.New(1)
	x := mat.RandGaussian(100, 5, g)
	kg := knn.BruteForce(x, 10)
	rho, sigma := smoothKNN(kg)
	target := math.Log2(10)
	for i := 0; i < x.RowsN; i++ {
		var sum float64
		for _, nb := range kg.Neighbors[i] {
			d := nb.Dist - rho[i]
			if d <= 0 {
				sum++
			} else {
				sum += math.Exp(-d / sigma[i])
			}
		}
		if math.Abs(sum-target) > 0.01 {
			t.Fatalf("point %d: membership sum %v, want %v", i, sum, target)
		}
		if rho[i] <= 0 {
			t.Fatalf("point %d: rho = %v", i, rho[i])
		}
	}
}

func TestBuildFuzzyGraphProperties(t *testing.T) {
	g := rng.New(2)
	x := mat.RandGaussian(60, 4, g)
	fg := BuildFuzzyGraph(knn.BruteForce(x, 8))
	if fg.N != 60 {
		t.Fatalf("N = %d", fg.N)
	}
	type pair struct{ a, b int }
	seen := map[pair]bool{}
	for e := range fg.Heads {
		w := fg.Weights[e]
		if w <= 0 || w > 1+1e-12 {
			t.Fatalf("edge %d weight %v out of (0,1]", e, w)
		}
		h, tl := fg.Heads[e], fg.Tails[e]
		if h == tl {
			t.Fatalf("self loop at %d", h)
		}
		p := pair{min2(h, tl), max(h, tl)}
		if seen[p] {
			t.Fatalf("duplicate undirected edge %v", p)
		}
		seen[p] = true
	}
	// Every point participates in at least one edge (k=8 neighbors).
	deg := make([]int, fg.N)
	for e := range fg.Heads {
		deg[fg.Heads[e]]++
		deg[fg.Tails[e]]++
	}
	for i, d := range deg {
		if d == 0 {
			t.Fatalf("point %d isolated", i)
		}
	}
}

func min2(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestFuzzyGraphNearestNeighborFullMembership(t *testing.T) {
	// The nearest neighbor of every point has membership 1 before
	// symmetrization (d = ρ), so its symmetrized weight is 1 too.
	g := rng.New(3)
	x := mat.RandGaussian(50, 3, g)
	kg := knn.BruteForce(x, 5)
	fg := BuildFuzzyGraph(kg)
	weight := map[[2]int]float64{}
	for e := range fg.Heads {
		a, b := fg.Heads[e], fg.Tails[e]
		weight[[2]int{min2(a, b), max(a, b)}] = fg.Weights[e]
	}
	for i := 0; i < x.RowsN; i++ {
		nn := kg.Neighbors[i][0].Index
		w := weight[[2]int{min2(i, nn), max(i, nn)}]
		if w < 1-1e-6 {
			t.Fatalf("point %d: nearest-neighbor weight %v, want 1", i, w)
		}
	}
}

// twoClusters builds two well-separated Gaussian blobs.
func twoClusters(nPer, d int, sep float64, seed uint64) (*mat.Matrix, []int) {
	g := rng.New(seed)
	x := mat.New(2*nPer, d)
	labels := make([]int, 2*nPer)
	for i := 0; i < 2*nPer; i++ {
		row := x.Row(i)
		for j := range row {
			row[j] = g.Norm() * 0.3
		}
		if i >= nPer {
			row[0] += sep
			labels[i] = 1
		}
	}
	return x, labels
}

func TestFitSeparatesClusters(t *testing.T) {
	x, labels := twoClusters(60, 5, 10, 4)
	emb := Fit(x, Config{NNeighbors: 10, NEpochs: 200, Seed: 5})
	if r, c := emb.Dims(); r != 120 || c != 2 {
		t.Fatalf("embedding shape %d×%d", r, c)
	}
	if emb.HasNaN() {
		t.Fatal("embedding has NaN")
	}
	sep := clusterSeparation(emb, labels)
	if sep < 2 {
		t.Fatalf("clusters not separated in embedding: separation score %v", sep)
	}
}

func TestFitAllInitMethods(t *testing.T) {
	// PCA is the one initialization Fit has; this checks it on a
	// second dataset and seed, with a longer layout than above.
	x, labels := twoClusters(50, 4, 12, 101)
	emb := Fit(x, Config{NNeighbors: 10, NEpochs: 300, Seed: 6})
	if emb.HasNaN() {
		t.Fatal("NaN in embedding")
	}
	if sep := clusterSeparation(emb, labels); sep < 1.2 {
		t.Errorf("clusters not separated (score %v)", sep)
	}
}

// clusterSeparation returns inter-centroid distance divided by mean
// intra-cluster spread.
func clusterSeparation(emb *mat.Matrix, labels []int) float64 {
	var c0, c1 [2]float64
	var n0, n1 int
	for i, l := range labels {
		if l == 0 {
			c0[0] += emb.At(i, 0)
			c0[1] += emb.At(i, 1)
			n0++
		} else {
			c1[0] += emb.At(i, 0)
			c1[1] += emb.At(i, 1)
			n1++
		}
	}
	c0[0] /= float64(n0)
	c0[1] /= float64(n0)
	c1[0] /= float64(n1)
	c1[1] /= float64(n1)
	var spread float64
	for i, l := range labels {
		c := c0
		if l == 1 {
			c = c1
		}
		dx := emb.At(i, 0) - c[0]
		dy := emb.At(i, 1) - c[1]
		spread += math.Sqrt(dx*dx + dy*dy)
	}
	spread /= float64(len(labels))
	inter := math.Hypot(c0[0]-c1[0], c0[1]-c1[1])
	if spread == 0 {
		return math.Inf(1)
	}
	return inter / spread
}

func TestFitDeterministic(t *testing.T) {
	x, _ := twoClusters(25, 4, 6, 6)
	cfg := Config{NNeighbors: 8, NEpochs: 50, Seed: 7}
	a := Fit(x, cfg)
	b := Fit(x, cfg)
	if !a.Equal(b, 0) {
		t.Fatal("same-seed UMAP runs differ")
	}
}

func TestFitPreservesNeighborhoods(t *testing.T) {
	// Points close in input space should tend to stay close in the
	// embedding: check that the mean embedded distance to input-space
	// kNN is far below the mean distance to random points.
	g := rng.New(8)
	x := mat.RandGaussian(150, 6, g)
	emb := Fit(x, Config{NNeighbors: 10, NEpochs: 150, Seed: 9})
	kg := knn.BruteForce(x, 5)
	var nbDist, randDist float64
	cnt := 0
	for i := 0; i < x.RowsN; i++ {
		for _, nb := range kg.Neighbors[i] {
			nbDist += math.Sqrt(distSq(emb.Row(i), emb.Row(nb.Index)))
			randDist += math.Sqrt(distSq(emb.Row(i), emb.Row(g.Intn(x.RowsN))))
			cnt++
		}
	}
	nbDist /= float64(cnt)
	randDist /= float64(cnt)
	if nbDist >= randDist {
		t.Fatalf("neighbors not preserved: nb %v vs random %v", nbDist, randDist)
	}
}

func TestFitSmallInputs(t *testing.T) {
	if e := Fit(mat.New(0, 3), Config{}); e.RowsN != 0 {
		t.Fatal("empty input should give empty embedding")
	}
	one := mat.FromRows([][]float64{{1, 2, 3}})
	if e := Fit(one, Config{}); e.RowsN != 1 || e.ColsN != 2 {
		t.Fatalf("single point embedding shape %d×%d", e.RowsN, e.ColsN)
	}
	two := mat.FromRows([][]float64{{0, 0}, {1, 1}})
	e := Fit(two, Config{NEpochs: 10, Seed: 1})
	if e.RowsN != 2 || e.HasNaN() {
		t.Fatal("two-point embedding broken")
	}
}

func TestFitDuplicatePoints(t *testing.T) {
	// All-identical points: must not NaN or explode.
	x := mat.New(20, 3)
	for i := 0; i < 20; i++ {
		x.Set(i, 0, 1)
		x.Set(i, 1, 2)
		x.Set(i, 2, 3)
	}
	emb := Fit(x, Config{NNeighbors: 5, NEpochs: 30, Seed: 2})
	if emb.HasNaN() {
		t.Fatal("duplicate points produced NaN embedding")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults(500)
	if c.NNeighbors != 15 || c.NComponents != 2 || c.NEpochs != 500 {
		t.Fatalf("defaults wrong: %+v", c)
	}
	big := Config{}.withDefaults(20000)
	if big.NEpochs != 200 {
		t.Fatalf("large-n NEpochs = %d", big.NEpochs)
	}
	tiny := Config{}.withDefaults(5)
	if tiny.NNeighbors != 4 {
		t.Fatalf("NNeighbors not clamped: %d", tiny.NNeighbors)
	}
}
