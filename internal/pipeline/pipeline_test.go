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
	if res.Ell != 15 {
		t.Fatalf("sketch rank %d, want 15", res.Ell)
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
}

// TestProcessIsADrainedMonitor: Process is a Monitor with a whole-run
// window, drained and read with Snapshot — fed in one batch or frame by
// frame, the view is the same bits, at one shard and at two.
func TestProcessIsADrainedMonitor(t *testing.T) {
	frames := imagesOf(beamFrames(90, 40))
	for _, shards := range []int{1, 2} {
		cfg := Config{
			Pre:       imgproc.Preprocessor{Normalize: true},
			Sketch:    sketch.Config{Ell0: 12, Beta: 0.9, Seed: 41},
			LatentDim: 6,
			UMAP:      umap.Config{NNeighbors: 8, NEpochs: 40, Seed: 42},
			Shards:    shards,
		}
		got := Process(frames, cfg)
		m := NewMonitor(cfg, len(frames))
		for i, im := range frames {
			m.Ingest(im, i)
		}
		want := m.Snapshot()
		if len(got.Tags) != len(frames) || got.Tags[0] != 0 || got.Tags[len(frames)-1] != len(frames)-1 {
			t.Fatalf("shards=%d: Process tags %v, want 0…%d", shards, got.Tags, len(frames)-1)
		}
		same := func(name string, a, b []float64) {
			if len(a) != len(b) {
				t.Fatalf("shards=%d: %s has %d values, the monitor's %d", shards, name, len(a), len(b))
			}
			for i := range a {
				if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
					t.Fatalf("shards=%d: %s[%d] = %v, the monitor's %v", shards, name, i, a[i], b[i])
				}
			}
		}
		ints := func(v []int) []float64 {
			out := make([]float64, len(v))
			for i, x := range v {
				out[i] = float64(x)
			}
			return out
		}
		same("Latent", got.Latent.Data, want.Latent.Data)
		same("Embedding", got.Embedding.Data, want.Embedding.Data)
		same("Labels", ints(got.Labels), ints(want.Labels))
		same("OutlierScores", got.OutlierScores, want.OutlierScores)
		same("Outliers", ints(got.Outliers), ints(want.Outliers))
		same("Residuals", got.Residuals, want.Residuals)
	}
}

// TestProcessKeepsTheEndOfStreamGuard: Process knows the run's length,
// so a rank-adaptive shard does not grow ℓ within its last ℓ+ν rows
// (Algorithm 2, line 8), while a monitor with no length grows there;
// over a longer run the guard still lets ℓ grow.
func TestProcessKeepsTheEndOfStreamGuard(t *testing.T) {
	const ell0, nu = 4, 2
	for _, shards := range []int{1, 2} {
		cfg := Config{
			Pre:       imgproc.Preprocessor{Normalize: true},
			Sketch:    sketch.Config{Ell0: ell0, Nu: nu, Eps: 1e-9, RankAdaptive: true, Seed: 43},
			LatentDim: 3,
			UMAP:      umap.Config{NNeighbors: 5, NEpochs: 20, Seed: 44},
			Shards:    shards,
		}
		// 14 rows a shard: the buffer (2ℓ₀ rows) first fills with 6 =
		// ℓ₀+ν rows to go, so the guard never lets a rotation ask to
		// grow, and an unguarded shard grows at its second rotation.
		short := imagesOf(beamFrames(14*shards, 45))
		if got := Process(short, cfg).Ell; got != ell0 {
			t.Fatalf("shards=%d: Process grew ℓ to %d within the last ℓ+ν rows, want %d", shards, got, ell0)
		}
		m := NewMonitor(cfg, len(short))
		m.IngestBatch(short, nil)
		if got := m.Ell(); got <= ell0 {
			t.Fatalf("shards=%d: an unguarded monitor kept ℓ=%d; the run does not exercise the guard", shards, got)
		}
		long := imagesOf(beamFrames(40*shards, 46))
		if got := Process(long, cfg).Ell; got <= ell0 {
			t.Fatalf("shards=%d: Process kept ℓ=%d over a long run at ε=1e-9, want growth", shards, got)
		}
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
