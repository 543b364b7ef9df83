package bench

import (
	"math"

	"arams/internal/hdbscan"
	"arams/internal/imgproc"
	"arams/internal/lcls"
	"arams/internal/mat"
	"arams/internal/optics"
	"arams/internal/pipeline"
	"arams/internal/sketch"
	"arams/internal/stats"
	"arams/internal/umap"
)

// Both embedding experiments report the trustworthiness of the 2-D
// embedding against the PCA latent it was fitted on, at this
// neighbourhood size.
const (
	trustK      = 10
	trustHeader = "trustworthiness(k=10)"
)

// EmbedParams sizes the Fig. 5/6 embedding experiments.
type EmbedParams struct {
	Frames  int // shots per run
	ImgSize int // detector frame side, pixels
	Shards  int // sketch shards the run is routed across
	Seed    uint64
}

// DefaultEmbed returns laptop-scale parameters.
func DefaultEmbed() EmbedParams {
	return EmbedParams{Frames: 400, ImgSize: 48, Shards: 4, Seed: 3}
}

// fig5Stats are the numbers one Fig. 5 run reports.
type fig5Stats struct {
	corr      [2][2]float64 // |Pearson| of [factor][axis]; factors are fig5Factors
	spearman  float64       // pairwise factor distance vs embedding distance
	trust     float64
	exotics   int // exotic shots in the run
	inTop     int // of those, how many rank among the residual outliers
	median    float64
	minExotic float64
	ratio     float64 // minExotic/median, 0 when undefined
	covErrRel float64
}

// fig5Factors names the generative factors Fig. 5 correlates each
// embedding axis with.
var fig5Factors = [2]string{"com_offset_x", "circularity"}

// Fig5BeamProfile reproduces the Fig. 5 experiment: beam profiles pass
// through the full pipeline and the resulting 2-D embedding is
// validated against the generators' latent factors. The paper reports
// (visually) that one axis organizes lateral center-of-mass weight and
// the other circularity; here that becomes measurable correlations.
func Fig5BeamProfile(p EmbedParams) []*Table {
	s := fig5(p)
	t := &Table{
		Title: "Fig.5: beam-profile embedding — axis/factor correlations",
		Note: "expect: the two embedding axes align with lateral COM offset and " +
			"circularity (|corr| high for one pairing per factor)",
		Header: []string{"factor", "|corr(axis0)|", "|corr(axis1)|", "best_axis", trustHeader},
	}
	for f, name := range fig5Factors {
		best := 0
		if s.corr[f][1] > s.corr[f][0] {
			best = 1
		}
		t.Append(name, s.corr[f][0], s.corr[f][1], best, "-")
	}
	t.Append("pairwise factor-dist (Spearman ρ)", s.spearman, "", "-", s.trust)

	// Exotic shots: residual-based separation statistics.
	t2 := &Table{
		Title: "Fig.5 (cont.): exotic-profile separation",
		Note: "expect: exotic shots have reconstruction residuals far above the " +
			"median shot and rank at the top of the anomaly ordering",
		Header: []string{"exotic_frames", "median_residual", "min_exotic_residual",
			"ratio", "exotics_in_top5%"},
	}
	t2.Append(s.exotics, s.median, s.minExotic, s.ratio, s.inTop)
	return []*Table{t, t2}
}

// fig5 runs the Fig. 5 experiment and returns its numbers.
func fig5(p EmbedParams) fig5Stats {
	bg := lcls.NewBeamGenerator(lcls.BeamConfig{
		Size: p.ImgSize, ExoticFrac: 0.03, Seed: p.Seed,
	})
	frames := bg.Generate(p.Frames)
	imgs := make([]*imgproc.Image, len(frames))
	for i, f := range frames {
		imgs[i] = f.Image
	}
	cfg := pipeline.Config{
		Pre:       imgproc.Preprocessor{ThresholdFrac: 0.02, Normalize: true},
		Sketch:    sketch.Config{Ell0: 25, Beta: 0.9, Seed: p.Seed},
		Shards:    p.Shards,
		LatentDim: 12,
		UMAP:      umap.Config{NNeighbors: 15, NEpochs: 200, Seed: p.Seed + 1},
	}
	res, covErrRel := process(imgs, cfg)

	// Correlate each embedding axis with each generative factor.
	n := len(frames)
	offX := make([]float64, n)
	circ := make([]float64, n)
	var exotics []int
	for i, f := range frames {
		offX[i] = f.Params.CenterX
		circ[i] = f.Params.Circularity()
		if f.Params.Exotic {
			exotics = append(exotics, i)
		}
	}
	ax0 := column(res.Embedding, 0)
	ax1 := column(res.Embedding, 1)
	s := fig5Stats{exotics: len(exotics), covErrRel: covErrRel}
	for f, vals := range [2][]float64{offX, circ} {
		s.corr[f] = [2]float64{math.Abs(stats.Pearson(ax0, vals)), math.Abs(stats.Pearson(ax1, vals))}
	}

	// Global organization: Spearman rank correlation between pairwise
	// factor distance and pairwise embedding distance. UMAP axes are
	// arbitrary rotations, so the pairwise statistic is the robust
	// check that the embedding is organized by the physical factors.
	var fd, ed []float64
	for i := 0; i < n; i += 3 {
		for j := i + 1; j < n; j += 17 {
			df := math.Abs(offX[i]-offX[j]) + 10*math.Abs(circ[i]-circ[j])
			de := math.Hypot(res.Embedding.At(i, 0)-res.Embedding.At(j, 0),
				res.Embedding.At(i, 1)-res.Embedding.At(j, 1))
			fd = append(fd, df)
			ed = append(ed, de)
		}
	}
	s.spearman = stats.Spearman(fd, ed)
	s.trust = stats.Trustworthiness(res.Latent, res.Embedding, trustK)

	// Exotic shots: residual-based separation statistics.
	s.median = stats.Median(res.Residuals)
	s.minExotic = math.Inf(1)
	for _, i := range exotics {
		if res.Residuals[i] < s.minExotic {
			s.minExotic = res.Residuals[i]
		}
	}
	topSet := map[int]bool{}
	for _, i := range res.ResidualOutliers {
		topSet[i] = true
	}
	for _, i := range exotics {
		if topSet[i] {
			s.inTop++
		}
	}
	if s.median > 0 && len(exotics) > 0 {
		s.ratio = s.minExotic / s.median
	}
	return s
}

// process is pipeline.Process — one run monitor over every frame, then
// one Snapshot — that also returns the run's cov_err_rel: the covariance
// error ‖AᵀA − BᵀB‖₂/‖A‖_F² of its merged sketch B against the exact
// preprocessed stream A.
func process(imgs []*imgproc.Image, cfg pipeline.Config) (*pipeline.Snapshot, float64) {
	cfg.AuditEvery = 1
	m := pipeline.NewRunMonitor(cfg, len(imgs), len(imgs))
	defer m.Engine().Close()
	tags := make([]int, len(imgs))
	for i := range tags {
		tags[i] = i
	}
	m.IngestBatch(imgs, tags)
	res := m.Snapshot()
	g := m.Engine().GlobalSketch()
	defer g.Release()
	var a *mat.Matrix
	for i, im := range imgs {
		v := cfg.Pre.ApplyVec(im, nil)
		if a == nil {
			a = mat.New(len(imgs), len(v))
		}
		copy(a.Row(i), v)
	}
	return res, sketch.CovErr(a, g.Sketch()) / a.FrobeniusNormSq()
}

// fig6Stats are the numbers one Fig. 6 run reports.
type fig6Stats struct {
	classes    int
	clusterers []fig6Clusterer
	trust      float64
	covErrRel  float64
}

// fig6Clusterer is one clusterer's recovery of the quadrant classes.
type fig6Clusterer struct {
	name                       string
	found                      int
	clusteredFrac, purity, ari float64
}

// Fig6Diffraction reproduces the Fig. 6 experiment: quadrant-weighted
// diffraction rings pass through the pipeline; the discovered clusters
// are scored against the generator's class labels. The one embedding is
// clustered by both backends the pipeline offers — OPTICS-ξ (its
// default, the paper's choice) and HDBSCAN* at the same density
// parameters — one row each.
func Fig6Diffraction(p EmbedParams) *Table {
	s := fig6(p)
	t := &Table{
		Title: "Fig.6: diffraction embedding — cluster recovery of quadrant classes",
		Note: "expect: clear clusters, each dominated by one quadrant-weight class " +
			"(high purity), cluster count near the class count",
		Header: []string{"clusterer", "true_classes", "found_clusters", "clustered_frac",
			"purity", "ARI", trustHeader},
	}
	for _, c := range s.clusterers {
		t.Append(c.name, s.classes, c.found, c.clusteredFrac, c.purity, c.ari, s.trust)
	}
	return t
}

// fig6 runs the Fig. 6 experiment and returns its numbers.
func fig6(p EmbedParams) fig6Stats {
	dg := lcls.NewDiffractionGenerator(lcls.DiffractionConfig{
		Size: p.ImgSize, Seed: p.Seed,
	})
	frames, truth := dg.Generate(p.Frames)
	imgs := make([]*imgproc.Image, len(frames))
	for i, f := range frames {
		imgs[i] = f.Image
	}
	cfg := pipeline.Config{
		Pre:       imgproc.Preprocessor{Normalize: true},
		Sketch:    sketch.Config{Ell0: 25, Beta: 0.9, Seed: p.Seed},
		Shards:    p.Shards,
		LatentDim: 12,
		UMAP:      umap.Config{NNeighbors: 20, NEpochs: 200, Seed: p.Seed + 1},
		// The pipeline's defaults, spelled out because the HDBSCAN row
		// below reads them.
		MinPts:         5,
		MinClusterSize: 20,
	}
	res, covErrRel := process(imgs, cfg)
	s := fig6Stats{
		classes:   dg.NumClasses(),
		trust:     stats.Trustworthiness(res.Latent, res.Embedding, trustK),
		covErrRel: covErrRel,
	}
	for _, c := range []struct {
		name   string
		labels []int
	}{
		{"optics-xi", res.Labels},
		{"hdbscan", hdbscan.Cluster(res.Embedding, cfg.MinPts, cfg.MinClusterSize).Labels},
	} {
		purity, clustered := purityOf(c.labels, truth)
		s.clusterers = append(s.clusterers, fig6Clusterer{
			name:          c.name,
			found:         optics.NumClusters(c.labels),
			clusteredFrac: float64(clustered) / float64(len(truth)),
			purity:        purity,
			ari:           optics.ARI(c.labels, truth),
		})
	}
	return s
}

func column(m *mat.Matrix, j int) []float64 {
	out := make([]float64, m.RowsN)
	for i := 0; i < m.RowsN; i++ {
		out[i] = m.At(i, j)
	}
	return out
}

func purityOf(labels, truth []int) (float64, int) {
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
