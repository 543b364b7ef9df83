package pipeline

import (
	"math"
	"sort"
	"testing"

	"arams/internal/imgproc"
	"arams/internal/lcls"
	"arams/internal/optics"
	"arams/internal/sketch"
	"arams/internal/umap"
)

func beamFrames(n int, seed uint64) []lcls.BeamFrame {
	bg := lcls.NewBeamGenerator(lcls.BeamConfig{Size: 32, Seed: seed})
	return bg.Generate(n)
}

func imagesOf(frames []lcls.BeamFrame) []*imgproc.Image {
	out := make([]*imgproc.Image, len(frames))
	for i, f := range frames {
		out[i] = f.Image
	}
	return out
}

func TestProcessShapes(t *testing.T) {
	frames := imagesOf(beamFrames(120, 1))
	cfg := Config{
		Pre:    imgproc.Preprocessor{Normalize: true},
		Sketch: sketch.Config{Ell0: 15, Seed: 2},
		UMAP:   umap.Config{NEpochs: 60, Seed: 3},
	}
	res := Process(frames, cfg)
	if res.Sketch.RowsN != 15 || res.Sketch.ColsN != 32*32 {
		t.Fatalf("sketch shape %d×%d", res.Sketch.RowsN, res.Sketch.ColsN)
	}
	if res.Latent.RowsN != 120 {
		t.Fatalf("latent rows %d", res.Latent.RowsN)
	}
	if res.Embedding.RowsN != 120 || res.Embedding.ColsN != 2 {
		t.Fatalf("embedding shape %d×%d", res.Embedding.RowsN, res.Embedding.ColsN)
	}
	if len(res.Labels) != 120 || len(res.OutlierScores) != 120 {
		t.Fatal("labels/scores length wrong")
	}
	if res.Embedding.HasNaN() || res.Latent.HasNaN() {
		t.Fatal("NaN in pipeline output")
	}
	if res.SketchThroughput <= 0 {
		t.Fatal("throughput not measured")
	}
}

func TestProcessTimingAccounting(t *testing.T) {
	frames := imagesOf(beamFrames(100, 7))
	res := Process(frames, Config{
		Pre:    imgproc.Preprocessor{Normalize: true},
		Sketch: sketch.Config{Ell0: 10, Seed: 8},
		UMAP:   umap.Config{NEpochs: 40, Seed: 9},
	})
	if res.PreprocessTime <= 0 {
		t.Fatal("PreprocessTime not measured")
	}
	if res.SketchTime <= 0 {
		t.Fatal("SketchTime not measured")
	}
	// Throughput must be derived from the sketch phase alone, not from
	// a clock started before preprocessing.
	want := float64(100) / res.SketchTime.Seconds()
	if math.Abs(res.SketchThroughput-want) > 1e-6*want {
		t.Fatalf("SketchThroughput = %v, want rows/SketchTime = %v", res.SketchThroughput, want)
	}
	// The stage ledger must cover every stage and stay within the
	// total: preprocess + sketch phase + visualization stages ≤ total.
	for _, stage := range []string{"preprocess", "sketch", "merge", "pca", "umap", "cluster", "abod", "residuals"} {
		if _, ok := res.StageTimes[stage]; !ok {
			t.Fatalf("StageTimes missing %q: %v", stage, res.StageTimes)
		}
	}
	sum := res.PreprocessTime + res.SketchTime +
		res.StageTimes["pca"] + res.StageTimes["umap"] +
		res.StageTimes["cluster"] + res.StageTimes["abod"] + res.StageTimes["residuals"]
	if sum > res.TotalTime*2 {
		t.Fatalf("stage times (%v) wildly exceed total (%v)", sum, res.TotalTime)
	}
	if res.TotalTime < res.PreprocessTime || res.TotalTime < res.SketchTime {
		t.Fatal("TotalTime smaller than a component stage")
	}
}

func TestProcessParallelMatchesShape(t *testing.T) {
	frames := imagesOf(beamFrames(160, 4))
	cfg := Config{
		Sketch:  sketch.Config{Ell0: 12, Seed: 5},
		Workers: 4,
		UMAP:    umap.Config{NEpochs: 40, Seed: 6},
	}
	res := Process(frames, cfg)
	if res.ParallelStats.Workers != 4 {
		t.Fatalf("workers = %d", res.ParallelStats.Workers)
	}
	if res.ParallelStats.MergeRounds != 2 {
		t.Fatalf("merge rounds = %d", res.ParallelStats.MergeRounds)
	}
	if res.Embedding.HasNaN() {
		t.Fatal("parallel pipeline produced NaN")
	}
}

func TestDiffractionClassesCluster(t *testing.T) {
	// The Fig. 6 claim, made quantitative: frames from distinct
	// quadrant-weight classes must separate into clusters agreeing
	// with ground truth.
	dg := lcls.NewDiffractionGenerator(lcls.DiffractionConfig{
		Size: 48,
		Classes: [][4]float64{
			{1, 1, 1, 1}, {1, 0.1, 1, 0.1}, {0.1, 1, 0.1, 1},
		},
		Seed: 7,
	})
	const n = 180
	frames := make([]*imgproc.Image, n)
	truth := make([]int, n)
	for i := 0; i < n; i++ {
		f := dg.NextClass(i % 3)
		frames[i] = f.Image
		truth[i] = i % 3
	}
	cfg := Config{
		Pre:       imgproc.Preprocessor{Normalize: true},
		Sketch:    sketch.Config{Ell0: 20, Seed: 8},
		LatentDim: 10,
		UMAP:      umap.Config{NNeighbors: 20, NEpochs: 150, Seed: 9},
		MinPts:    5,
	}
	res := Process(frames, cfg)
	nc := optics.NumClusters(res.Labels)
	if nc < 2 || nc > 8 {
		t.Fatalf("found %d clusters, want a handful", nc)
	}
	// UMAP may split one class across islands, so the right criterion
	// is purity: every discovered cluster must be dominated by a
	// single quadrant-weight class, over a majority of the points.
	purity, clustered := clusterPurity(res.Labels, truth)
	if clustered < n/2 {
		t.Fatalf("only %d/%d points clustered", clustered, n)
	}
	if purity < 0.9 {
		t.Fatalf("cluster purity %v against quadrant classes", purity)
	}
}

// clusterPurity returns the fraction of clustered points whose cluster
// is dominated by their true class, and the number of clustered points.
func clusterPurity(labels, truth []int) (float64, int) {
	counts := map[int]map[int]int{}
	clustered := 0
	for i, l := range labels {
		if l == optics.Noise {
			continue
		}
		if counts[l] == nil {
			counts[l] = map[int]int{}
		}
		counts[l][truth[i]]++
		clustered++
	}
	if clustered == 0 {
		return 0, 0
	}
	pure := 0
	for _, cc := range counts {
		best := 0
		for _, c := range cc {
			if c > best {
				best = c
			}
		}
		pure += best
	}
	return float64(pure) / float64(clustered), clustered
}

func TestBeamEmbeddingCorrelatesWithFactors(t *testing.T) {
	// The Fig. 5 claim, made quantitative: the embedding must organize
	// by the generative shape factors. We check that distances in
	// embedding space correlate with differences in (offset,
	// circularity) space.
	bg := lcls.NewBeamGenerator(lcls.BeamConfig{
		Size: 32, ModeProb: -1, ExoticFrac: 0, Seed: 10,
	})
	frames := bg.Generate(150)
	imgs := imagesOf(frames)
	cfg := Config{
		Pre:       imgproc.Preprocessor{Normalize: true},
		Sketch:    sketch.Config{Ell0: 15, Seed: 11},
		LatentDim: 8,
		UMAP:      umap.Config{NNeighbors: 12, NEpochs: 150, Seed: 12},
	}
	res := Process(imgs, cfg)
	// Rank correlation between factor distance and embedding distance
	// over sampled pairs.
	var factor, embed []float64
	for i := 0; i < 140; i += 3 {
		for j := i + 1; j < 140; j += 17 {
			fi, fj := frames[i].Params, frames[j].Params
			df := math.Hypot(fi.CenterX-fj.CenterX, fi.CenterY-fj.CenterY) +
				10*math.Abs(fi.Circularity()-fj.Circularity())
			de := math.Hypot(res.Embedding.At(i, 0)-res.Embedding.At(j, 0),
				res.Embedding.At(i, 1)-res.Embedding.At(j, 1))
			factor = append(factor, df)
			embed = append(embed, de)
		}
	}
	if rho := spearman(factor, embed); rho < 0.3 {
		t.Fatalf("embedding distance does not track factor distance: ρ = %v", rho)
	}
}

// spearman computes the Spearman rank correlation of two sequences.
func spearman(a, b []float64) float64 {
	ra := ranks(a)
	rb := ranks(b)
	n := float64(len(a))
	var ma, mb float64
	for i := range ra {
		ma += ra[i]
		mb += rb[i]
	}
	ma /= n
	mb /= n
	var cov, va, vb float64
	for i := range ra {
		da, db := ra[i]-ma, rb[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

func ranks(v []float64) []float64 {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < len(idx); i++ { // insertion sort by value
		for j := i; j > 0 && v[idx[j]] < v[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	out := make([]float64, len(v))
	for r, i := range idx {
		out[i] = float64(r)
	}
	return out
}

func TestExoticShotsFlaggedAnomalous(t *testing.T) {
	// Exotic beam profiles carry most of their energy outside the
	// sketch's dominant directions, so they must top the reconstruction
	// -residual ranking (the paper's "exotic shapes do not match
	// primary features of the other beam profiles").
	bg := lcls.NewBeamGenerator(lcls.BeamConfig{Size: 32, ExoticFrac: 0, Seed: 13})
	frames := bg.Generate(100)
	// Inject 3 exotic frames from a high-exotic generator.
	ex := lcls.NewBeamGenerator(lcls.BeamConfig{Size: 32, ExoticFrac: 1, Seed: 14})
	exoticIdx := map[int]bool{}
	for _, i := range []int{20, 50, 80} {
		frames[i] = ex.Next()
		exoticIdx[i] = true
	}
	imgs := imagesOf(frames)
	cfg := Config{
		Pre:       imgproc.Preprocessor{Normalize: true},
		Sketch:    sketch.Config{Ell0: 15, Seed: 15},
		LatentDim: 8,
		UMAP:      umap.Config{NNeighbors: 10, NEpochs: 120, Seed: 16},
	}
	res := Process(imgs, cfg)
	// The pipeline flags the top 2 % — two of these 100 shots — and both
	// must be exotic; all three exotic shots rank among the top five.
	if len(res.ResidualOutliers) != 2 {
		t.Fatalf("%d residual outliers flagged, want 2", len(res.ResidualOutliers))
	}
	for _, o := range res.ResidualOutliers {
		if !exoticIdx[o] {
			t.Fatalf("residual outlier %d is not exotic (outliers %v)", o, res.ResidualOutliers)
		}
	}
	hit := 0
	for _, o := range topResiduals(res.Residuals, 0.05) {
		if exoticIdx[o] {
			hit++
		}
	}
	if hit < 3 {
		t.Fatalf("only %d/3 exotic shots among the top five residuals (residuals %v %v %v)",
			hit, res.Residuals[20], res.Residuals[50], res.Residuals[80])
	}
	// Exotic residuals must dominate the typical (median) shot by a
	// wide margin.
	var normals []float64
	for i, r := range res.Residuals {
		if !exoticIdx[i] {
			normals = append(normals, r)
		}
	}
	sort.Float64s(normals)
	median := normals[len(normals)/2]
	for _, i := range []int{20, 50, 80} {
		if res.Residuals[i] < 2*median {
			t.Fatalf("exotic %d residual %v not well above median normal %v", i, res.Residuals[i], median)
		}
	}
}

func TestProcessZeroData(t *testing.T) {
	frames := []*imgproc.Image{imgproc.NewImage(8, 8), imgproc.NewImage(8, 8)}
	res := Process(frames, Config{Sketch: sketch.Config{Ell0: 4, Seed: 1}})
	if res.Embedding.RowsN != 2 {
		t.Fatalf("zero-data embedding rows %d", res.Embedding.RowsN)
	}
	for _, l := range res.Labels {
		if l != optics.Noise {
			t.Fatal("zero data should be all noise")
		}
	}
}

func TestMonitorIncremental(t *testing.T) {
	cfg := Config{
		Pre:    imgproc.Preprocessor{Normalize: true},
		Sketch: sketch.Config{Ell0: 10, Seed: 17},
		UMAP:   umap.Config{NNeighbors: 8, NEpochs: 40, Seed: 18},
	}
	m := NewMonitor(cfg, 64)
	if m.Snapshot() != nil {
		t.Fatal("empty monitor produced a snapshot")
	}
	bg := lcls.NewBeamGenerator(lcls.BeamConfig{Size: 24, Seed: 19})
	for i := 0; i < 100; i++ {
		m.Ingest(bg.Next().Image, i)
	}
	if m.Ingested() != 100 {
		t.Fatalf("Ingested = %d", m.Ingested())
	}
	if m.Ell() != 10 {
		t.Fatalf("Ell = %d", m.Ell())
	}
	snap := m.Snapshot()
	if snap == nil {
		t.Fatal("no snapshot")
	}
	// Window keeps the latest 64 frames: tags 36..99.
	if len(snap.Tags) != 64 || snap.Tags[0] != 36 || snap.Tags[63] != 99 {
		t.Fatalf("window tags wrong: len=%d first=%d last=%d", len(snap.Tags), snap.Tags[0], snap.Tags[len(snap.Tags)-1])
	}
	if snap.Embedding.RowsN != 64 || snap.Embedding.HasNaN() {
		t.Fatal("snapshot embedding broken")
	}
	if len(snap.Labels) != 64 || len(snap.OutlierScores) != 64 {
		t.Fatal("snapshot labels/scores wrong length")
	}
}

func TestMonitorConcurrentSnapshot(t *testing.T) {
	cfg := Config{
		Sketch: sketch.Config{Ell0: 8, Seed: 20},
		UMAP:   umap.Config{NNeighbors: 6, NEpochs: 20, Seed: 21},
	}
	m := NewMonitor(cfg, 32)
	bg := lcls.NewBeamGenerator(lcls.BeamConfig{Size: 16, Seed: 22})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 60; i++ {
			m.Ingest(bg.Next().Image, i)
		}
	}()
	for i := 0; i < 5; i++ {
		m.Snapshot() // must not race with Ingest (run with -race)
	}
	<-done
	if snap := m.Snapshot(); snap == nil || len(snap.Tags) != 32 {
		t.Fatal("final snapshot wrong")
	}
}
