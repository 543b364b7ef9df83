package pipeline

import (
	"testing"

	"arams/internal/imgproc"
	"arams/internal/mat"
	"arams/internal/optics"
	"arams/internal/rng"
	"arams/internal/sketch"
	"arams/internal/umap"
)

func TestProcessMatrixWithBasis(t *testing.T) {
	g := rng.New(30)
	x := mat.RandGaussian(80, 20, g)
	fd := sketch.NewFrequentDirections(8, 20, sketch.Options{})
	fd.AppendMatrix(x)
	basis := fd.Basis(5)

	res := ProcessMatrixWithBasis(x, basis, Config{
		UMAP: umap.Config{NNeighbors: 8, NEpochs: 30, Seed: 31},
	})
	if res.Latent.RowsN != 80 || res.Latent.ColsN != 5 {
		t.Fatalf("latent shape %d×%d", res.Latent.RowsN, res.Latent.ColsN)
	}
	if res.Embedding.RowsN != 80 || res.Embedding.ColsN != 2 {
		t.Fatal("embedding shape wrong")
	}
	if len(res.Residuals) != 80 {
		t.Fatal("residuals missing")
	}
	for _, stage := range []string{"pca", "umap", "cluster", "abod", "residuals"} {
		if _, ok := res.StageTimes[stage]; !ok {
			t.Fatalf("StageTimes missing %q: %v", stage, res.StageTimes)
		}
	}
}

func TestProcessMatrixWithEmptyBasis(t *testing.T) {
	x := mat.RandGaussian(10, 5, rng.New(32))
	res := ProcessMatrixWithBasis(x, mat.New(0, 5), Config{})
	for _, l := range res.Labels {
		if l != optics.Noise {
			t.Fatal("empty basis should label everything noise")
		}
	}
	if res.Embedding.RowsN != 10 {
		t.Fatal("embedding rows wrong")
	}
	// Every slice artifact must be non-nil on the degenerate path so
	// CLI output and JSON exposition stay consistent with the normal
	// path (empty, not absent).
	if res.Outliers == nil || len(res.Outliers) != 0 {
		t.Fatalf("Outliers = %#v, want empty non-nil slice", res.Outliers)
	}
	if res.ResidualOutliers == nil || len(res.ResidualOutliers) != 0 {
		t.Fatalf("ResidualOutliers = %#v, want empty non-nil slice", res.ResidualOutliers)
	}
	if res.OutlierScores == nil || res.Residuals == nil {
		t.Fatal("OutlierScores/Residuals must be allocated")
	}
	if res.StageTimes == nil {
		t.Fatal("StageTimes must be allocated")
	}
}

func TestMonitorZeroFramesThenData(t *testing.T) {
	cfg := Config{
		Sketch: sketch.Config{Ell0: 4, Seed: 36},
		UMAP:   umap.Config{NNeighbors: 4, NEpochs: 10, Seed: 37},
	}
	m := NewMonitor(cfg, 16)
	// All-zero frames first: sketch content is zero, snapshot must not
	// NaN.
	for i := 0; i < 10; i++ {
		m.Ingest(imgproc.NewImage(6, 6), i)
	}
	snap := m.Snapshot()
	if snap == nil {
		t.Fatal("no snapshot for zero data")
	}
	if snap.Embedding.HasNaN() {
		t.Fatal("zero-data snapshot has NaN")
	}
	// Then real data flows in.
	g := rng.New(38)
	for i := 10; i < 30; i++ {
		im := imgproc.NewImage(6, 6)
		for p := range im.Pix {
			im.Pix[p] = g.Float64()
		}
		m.Ingest(im, i)
	}
	snap = m.Snapshot()
	if snap == nil || snap.Embedding.HasNaN() {
		t.Fatal("mixed-data snapshot broken")
	}
}
