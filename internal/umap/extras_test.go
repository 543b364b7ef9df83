package umap

import (
	"testing"

	"arams/internal/knn"
	"arams/internal/mat"
	"arams/internal/rng"
)

func TestFit3Components(t *testing.T) {
	g := rng.New(40)
	x := mat.RandGaussian(60, 8, g)
	emb := Fit(x, Config{NComponents: 3, NNeighbors: 8, NEpochs: 30, Seed: 41})
	if emb.ColsN != 3 {
		t.Fatalf("embedding has %d components", emb.ColsN)
	}
	if emb.HasNaN() {
		t.Fatal("3-D embedding has NaN")
	}
}

func TestFitMoreComponentsThanInputDims(t *testing.T) {
	// NComponents larger than the input dimension: PCA init can only
	// fill the first d columns, the rest start at jitter — must still
	// work.
	g := rng.New(42)
	x := mat.RandGaussian(40, 2, g)
	emb := Fit(x, Config{NComponents: 4, NNeighbors: 6, NEpochs: 20, Seed: 43})
	if emb.ColsN != 4 || emb.HasNaN() {
		t.Fatal("over-wide embedding broken")
	}
}

func TestMaxWeight(t *testing.T) {
	fg := &FuzzyGraph{Weights: []float64{0.2, 0.9, 0.5}}
	if got := fg.MaxWeight(); got != 0.9 {
		t.Fatalf("MaxWeight = %v", got)
	}
	empty := &FuzzyGraph{}
	if got := empty.MaxWeight(); got != 0 {
		t.Fatalf("empty MaxWeight = %v", got)
	}
}

func TestBuildFuzzyGraphK1(t *testing.T) {
	// k=1 graphs (every point connected to its single nearest
	// neighbor) are the minimum viable input.
	g := rng.New(44)
	x := mat.RandGaussian(20, 3, g)
	fg := BuildFuzzyGraph(knn.BruteForce(x, 1))
	if len(fg.Heads) == 0 {
		t.Fatal("k=1 produced no edges")
	}
	for _, w := range fg.Weights {
		if w <= 0 || w > 1+1e-9 {
			t.Fatalf("weight %v out of range", w)
		}
	}
}

func TestFitABMonotone(t *testing.T) {
	// Larger minDist flattens the curve: fitted a decreases.
	aSmall, _ := FitAB(1, 0.01)
	aLarge, _ := FitAB(1, 0.8)
	if aLarge >= aSmall {
		t.Fatalf("a should fall with minDist: a(0.01)=%v a(0.8)=%v", aSmall, aLarge)
	}
}

func TestOptimizeEmptyGraphNoop(t *testing.T) {
	emb := mat.New(3, 2)
	optimizeLayout(emb, &FuzzyGraph{N: 3}, Config{}.withDefaults(3), newCurve(FitAB(1, 0.1)))
	if emb.FrobeniusNorm() != 0 {
		t.Fatal("empty graph changed the embedding")
	}
}
