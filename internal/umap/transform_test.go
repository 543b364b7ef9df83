package umap

import (
	"math"
	"testing"

	"arams/internal/mat"
	"arams/internal/rng"
)

func TestTransformPlacesNearOwnCluster(t *testing.T) {
	// Fit on two clusters; transform fresh points from each cluster and
	// check they land nearer their own cluster's centroid.
	x, labels := twoClusters(60, 4, 12, 200)
	m := FitModel(x, Config{NNeighbors: 10, NEpochs: 200, Seed: 1})

	// Centroids of the fitted embedding per cluster.
	emb := m.Embedding()
	var c0, c1 [2]float64
	for i, l := range labels {
		if l == 0 {
			c0[0] += emb.At(i, 0)
			c0[1] += emb.At(i, 1)
		} else {
			c1[0] += emb.At(i, 0)
			c1[1] += emb.At(i, 1)
		}
	}
	for d := 0; d < 2; d++ {
		c0[d] /= 60
		c1[d] /= 60
	}

	// New points: 10 from cluster 0, 10 from cluster 1.
	g := rng.New(201)
	fresh := mat.New(20, 4)
	for i := 0; i < 20; i++ {
		row := fresh.Row(i)
		for j := range row {
			row[j] = 0.3 * g.Norm()
		}
		if i >= 10 {
			row[0] += 12
		}
	}
	z := m.Transform(fresh)
	if z.HasNaN() {
		t.Fatal("transform produced NaN")
	}
	correct := 0
	for i := 0; i < 20; i++ {
		d0 := math.Hypot(z.At(i, 0)-c0[0], z.At(i, 1)-c0[1])
		d1 := math.Hypot(z.At(i, 0)-c1[0], z.At(i, 1)-c1[1])
		wantCluster0 := i < 10
		if (d0 < d1) == wantCluster0 {
			correct++
		}
	}
	if correct < 18 {
		t.Fatalf("only %d/20 transformed points near their own cluster", correct)
	}
}

func TestTransformEmpty(t *testing.T) {
	x, _ := twoClusters(20, 3, 8, 202)
	m := FitModel(x, Config{NNeighbors: 6, NEpochs: 50, Seed: 2})
	z := m.Transform(mat.New(0, 3))
	if z.RowsN != 0 {
		t.Fatal("empty transform returned rows")
	}
}

func TestTransformDimMismatchPanics(t *testing.T) {
	x, _ := twoClusters(15, 3, 8, 203)
	m := FitModel(x, Config{NNeighbors: 5, NEpochs: 30, Seed: 3})
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch did not panic")
		}
	}()
	m.Transform(mat.New(2, 4))
}

func TestTransformDeterministic(t *testing.T) {
	x, _ := twoClusters(25, 4, 10, 204)
	m := FitModel(x, Config{NNeighbors: 8, NEpochs: 60, Seed: 4})
	g := rng.New(205)
	fresh := mat.RandGaussian(5, 4, g)
	a := m.Transform(fresh)
	b := m.Transform(fresh)
	if !a.Equal(b, 0) {
		t.Fatal("Transform not deterministic")
	}
}

// TestTransformAllocationsPerRow: the neighbor lookup scans the training
// latent through one reused buffer, so a Transform allocates a fixed
// handful of slabs, not a tree per call and a boxed heap entry per
// candidate.
func TestTransformAllocationsPerRow(t *testing.T) {
	g := rng.New(300)
	m := FitModel(mat.RandGaussian(512, 12, g), Config{NNeighbors: 10, NEpochs: 30, Seed: 2})
	x := mat.RandGaussian(512, 12, g)
	perRow := testing.AllocsPerRun(3, func() { m.Transform(x) }) / float64(x.RowsN)
	if perRow >= 3 {
		t.Fatalf("Transform makes %.2f allocations per query row, want < 3", perRow)
	}
}
