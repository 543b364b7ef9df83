// Package pipeline assembles the paper's full monitoring framework
// (Fig. 4): batches of detector images are preprocessed, sketched in
// parallel with ARAMS, merged into a global summary, projected onto the
// sketch's principal directions, embedded in 2-D with UMAP, and finally
// clustered with OPTICS and screened for anomalies with ABOD.
package pipeline

import (
	"math"
	"sort"
	"time"

	"arams/internal/abod"
	"arams/internal/audit"
	"arams/internal/engine"
	"arams/internal/hdbscan"
	"arams/internal/imgproc"
	"arams/internal/mat"
	"arams/internal/obs"
	"arams/internal/optics"
	"arams/internal/parallel"
	"arams/internal/pca"
	"arams/internal/sketch"
	"arams/internal/umap"
)

// Pipeline-level observability: one counter per entry point plus the
// per-stage duration histograms fed by obs spans (stage names
// preprocess, sketch, merge, pca, umap, cluster, abod, residuals).
var obsRuns = obs.Default().Counter("arams_pipeline_runs_total")

// Config parameterizes the full pipeline. Zero values select sensible
// defaults for every stage.
type Config struct {
	// Pre is the per-frame preprocessing chain.
	Pre imgproc.Preprocessor
	// Sketch configures ARAMS. Ell0 defaults to 20.
	Sketch sketch.Config
	// Workers is the number of parallel sketch shards (default 1),
	// merged with the tree merge.
	Workers int
	// LatentDim is the PCA projection dimension (default 20, clamped
	// to the sketch rank).
	LatentDim int
	// UMAP configures the 2-D embedding stage.
	UMAP umap.Config
	// MinPts is the OPTICS/HDBSCAN density parameter (default 5).
	MinPts int
	// UseHDBSCAN selects HDBSCAN* instead of OPTICS for the clustering
	// stage (no radius parameter needed at all).
	UseHDBSCAN bool
	// MinClusterSize for ξ extraction (default 4·MinPts).
	MinClusterSize int
	// Audit, when set, receives sketch-quality observations: batch
	// pipeline runs feed one per run (certificate + mean projection
	// residual), and a Monitor feeds one every AuditEvery ingested
	// frames plus rank-growth journal events. nil disables auditing.
	Audit *audit.Auditor
	// AuditEvery is the Monitor's frame interval between audit points
	// (default 32). Audit points are cheap — they reuse the per-batch
	// accounting the sketch already keeps — but an interval keeps the
	// journal and detector cadence independent of the repetition rate.
	AuditEvery int
	// Shards is the Monitor's streaming-engine shard count (default 1):
	// the number of independent sketchers ingest is routed across. One
	// shard is bit-identical to the pre-engine serial monitor; more
	// shards sketch concurrently and reconcile into a global sketch via
	// the tree merge, with certificates composing across shards. (The
	// batch Process path has its own Workers knob above.)
	Shards int
	// IngestBuffer bounds the engine's async Enqueue queue (default
	// 256). Producers block when it is full — backpressure, not drops.
	IngestBuffer int
	// Tenant, when non-empty, scopes the Monitor's engine metrics with
	// a tenant="<id>" label (set by the multi-tenant registry). Empty
	// keeps the process-wide unlabeled series.
	Tenant string
	// FrameBudget is the Monitor's per-frame wall-time SLO, amortized
	// over each ingest batch (default one 120 Hz machine period;
	// negative disables). Misses are counted, journaled as
	// deadline_miss events, and a sustained burn fires the flight
	// recorder.
	FrameBudget time.Duration
	// Backends, when non-empty, supplies the Monitor's engine shard
	// backends directly and overrides Shards — the distributed-fabric
	// hook (see internal/fabric): slot i is shard i, and the caller
	// (e.g. cmd/lclsmon's fabric mode) must configure backend i with
	// engine.ShardSketchConfig(Sketch, i) so routing and RNG semantics
	// match an all-local monitor.
	Backends []engine.Backend
}

// The clustering and outlier stages run at fixed parameters: the
// steep-area ξ of OPTICS cluster extraction, the neighbour count k of
// FastABOD scoring, and the fraction of frames flagged as outliers.
const (
	xi            = 0.15
	abodNeighbors = 10
	contamination = 0.02
)

func (c Config) withDefaults() Config {
	if c.Sketch.Ell0 <= 0 {
		c.Sketch.Ell0 = 20
	}
	if c.Sketch.Beta <= 0 {
		c.Sketch.Beta = 1
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.LatentDim <= 0 {
		c.LatentDim = 20
	}
	if c.MinPts <= 0 {
		c.MinPts = 5
	}
	if c.MinClusterSize <= 0 {
		c.MinClusterSize = 4 * c.MinPts
	}
	if c.AuditEvery <= 0 {
		c.AuditEvery = 32
	}
	return c
}

// Result carries every artifact of a pipeline run.
type Result struct {
	// Sketch is the merged global ℓ×d sketch matrix.
	Sketch *mat.Matrix
	// Basis is the k×d latent basis (right singular vectors).
	Basis *mat.Matrix
	// Latent is the n×k projection of the input.
	Latent *mat.Matrix
	// Embedding is the n×2 UMAP embedding.
	Embedding *mat.Matrix
	// Labels are OPTICS cluster labels (optics.Noise = −1 for noise).
	Labels []int
	// OutlierScores are per-point ABOF values on the embedding
	// (low = anomalous).
	OutlierScores []float64
	// Outliers are the ABOD-flagged indices, most anomalous first.
	Outliers []int
	// Residuals are per-frame relative reconstruction errors
	// ‖x − VᵀVx‖²/‖x‖² against the sketch basis (high = anomalous).
	// Frames whose shape is not captured by the dominant directions —
	// the paper's "exotic beam profiles" — stand out here even when the
	// 2-D embedding pulls them into the cloud.
	Residuals []float64
	// ResidualOutliers are the contamination·n highest-residual
	// indices, most anomalous first.
	ResidualOutliers []int
	// ParallelStats reports the sketch/merge phase accounting.
	ParallelStats parallel.Stats
	// SketchThroughput is frames/second through the sketch+merge phase
	// (it excludes preprocessing; see PreprocessTime).
	SketchThroughput float64
	// PreprocessTime is the wall time of the per-frame preprocessing
	// loop. Zero when the caller entered below preprocessing (e.g.
	// ProcessMatrix on an already-flattened matrix).
	PreprocessTime time.Duration
	// SketchTime is the wall time of the sketch+merge phase.
	SketchTime time.Duration
	// StageTimes maps each executed stage ("preprocess", "sketch",
	// "merge", "pca", "umap", "cluster", "abod", "residuals") to its
	// wall time, so PreprocessTime + SketchTime + the visualization
	// stages reconcile with TotalTime.
	StageTimes map[string]time.Duration
	// TotalTime is the wall time of the full run.
	TotalTime time.Duration
}

// Process runs the batch pipeline on a set of frames. Preprocessing is
// a Stage like everything downstream, fanned out per frame on the
// shared worker pool (Preprocessor.Apply works on a copy, so frames
// preprocess independently).
func Process(frames []*imgproc.Image, cfg Config) *Result {
	cfg = cfg.withDefaults()
	start := time.Now()

	var x *mat.Matrix
	times := engine.RunStages([]engine.Stage{
		{Name: "preprocess", Run: func() {
			pre := make([]*imgproc.Image, len(frames))
			mat.ParallelFor(len(frames), 1, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					pre[i] = cfg.Pre.Apply(frames[i])
				}
			})
			x = imgproc.ToMatrix(pre)
		}},
	})

	res := ProcessMatrix(x, cfg)
	res.PreprocessTime = times["preprocess"]
	res.StageTimes["preprocess"] = times["preprocess"]
	res.TotalTime = time.Since(start)
	return res
}

// ProcessMatrix runs the pipeline on an already-flattened data matrix
// (rows are observations).
func ProcessMatrix(x *mat.Matrix, cfg Config) *Result {
	cfg = cfg.withDefaults()
	obsRuns.Inc()
	start := time.Now()
	res := &Result{}

	// Stage 1: parallel ARAMS sketch with merge. parallel.Run records
	// the "sketch" and "merge" spans; its Stats give the split.
	shards := parallel.SplitRows(x, cfg.Workers)
	sketcher := func(shard *mat.Matrix) *sketch.FrequentDirections {
		a := sketch.NewARAMS(cfg.Sketch, shard.ColsN, shard.RowsN)
		a.ProcessBatch(shard)
		return a.FD()
	}
	global, stats := parallel.Run(shards, sketcher, parallel.TreeMerge)
	res.ParallelStats = stats
	res.Sketch = global.Sketch()
	res.SketchTime = stats.Total
	if stats.Total > 0 {
		res.SketchThroughput = float64(x.RowsN) / stats.Total.Seconds()
	}

	// Stages 2–5: projection, UMAP, OPTICS, anomaly detection.
	k := cfg.LatentDim
	if k > global.Ell() {
		k = global.Ell()
	}
	basis := global.Basis(k)
	viz := ProcessMatrixWithBasis(x, basis, cfg)
	viz.Sketch = res.Sketch
	viz.ParallelStats = res.ParallelStats
	viz.SketchTime = res.SketchTime
	viz.SketchThroughput = res.SketchThroughput
	viz.StageTimes["sketch"] = stats.SketchTime
	viz.StageTimes["merge"] = stats.MergeTime
	if cfg.Audit != nil {
		// One audit point per run: the merged sketch's certificate plus
		// the mean projection residual the visualization stage already
		// computed (an exact residual — the batch path can afford it).
		mean := 0.0
		if len(viz.Residuals) > 0 {
			for _, r := range viz.Residuals {
				mean += r
			}
			mean /= float64(len(viz.Residuals))
		}
		cfg.Audit.Observe(audit.Observation{
			Residual:   mean,
			AcceptRate: math.NaN(), // per-shard sampling stats are not folded
			Cert:       stats.Certificate,
		})
	}
	viz.TotalTime = time.Since(start)
	return viz
}

// ProcessMatrixWithBasis runs only the visualization stages —
// projection onto a precomputed basis, UMAP, OPTICS, ABOD — skipping
// the sketch. This is the path an online monitor takes when refreshing
// the operator view from an already-maintained sketch.
func ProcessMatrixWithBasis(x, basis *mat.Matrix, cfg Config) *Result {
	cfg = cfg.withDefaults()
	start := time.Now()
	res := &Result{Basis: basis, StageTimes: make(map[string]time.Duration)}
	if basis.RowsN == 0 {
		// Degenerate basis (all-zero sketch): every downstream artifact
		// is present but empty, so callers and the JSON/HTML expositions
		// never see a nil slice on this path.
		res.Latent = mat.New(x.RowsN, 0)
		res.Embedding = mat.New(x.RowsN, 2)
		res.Labels = make([]int, x.RowsN)
		for i := range res.Labels {
			res.Labels[i] = optics.Noise
		}
		res.OutlierScores = make([]float64, x.RowsN)
		res.Outliers = []int{}
		res.Residuals = make([]float64, x.RowsN)
		res.ResidualOutliers = []int{}
		res.TotalTime = time.Since(start)
		return res
	}

	// The visualization stages as composable Stage values: each closes
	// over the Result, the engine executor contributes spans + timing.
	proj := pca.NewProjector(basis)
	times := engine.RunStages([]engine.Stage{
		{Name: "pca", Run: func() { res.Latent = proj.Project(x) }},
		{Name: "umap", Run: func() { res.Embedding = umap.Fit(res.Latent, cfg.UMAP) }},
		{Name: "cluster", Run: func() { res.Labels = clusterEmbedding(res.Embedding, cfg) }},
		{Name: "abod", Run: func() {
			res.OutlierScores = abod.Scores(res.Embedding, abodNeighbors)
			res.Outliers = abod.Outliers(res.OutlierScores, contamination)
		}},
		{Name: "residuals", Run: func() {
			res.Residuals = residuals(x, res.Latent)
			res.ResidualOutliers = topResiduals(res.Residuals, contamination)
		}},
	})
	for name, d := range times {
		res.StageTimes[name] = d
	}
	res.TotalTime = time.Since(start)
	return res
}

// clusterEmbedding runs the configured clustering backend on the 2-D
// embedding.
func clusterEmbedding(emb *mat.Matrix, cfg Config) []int {
	if cfg.UseHDBSCAN {
		return hdbscan.Cluster(emb, cfg.MinPts, cfg.MinClusterSize).Labels
	}
	return optics.Run(emb, cfg.MinPts, math.Inf(1)).ExtractXi(xi, cfg.MinPts, cfg.MinClusterSize)
}

// residuals returns per-row relative reconstruction errors from the
// already-computed latent projection: row i of latent holds the basis
// coefficients of row i of x (the basis rows are orthonormal), so
// ‖x − VᵀVx‖² = ‖x‖² − ‖c‖² with no further matrix-vector products —
// the PCA stage's blocked MulABt already did that work once.
func residuals(x, latent *mat.Matrix) []float64 {
	out := make([]float64, x.RowsN)
	for i := 0; i < x.RowsN; i++ {
		den := mat.Norm2Sq(x.Row(i))
		if den == 0 {
			continue
		}
		r := den - mat.Norm2Sq(latent.Row(i))
		if r < 0 {
			r = 0
		}
		out[i] = r / den
	}
	return out
}

// topResiduals returns the ⌈contamination·n⌉ highest-residual indices,
// descending.
func topResiduals(res []float64, contamination float64) []int {
	n := len(res)
	m := int(math.Ceil(contamination * float64(n)))
	if m > n {
		m = n
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if res[idx[a]] != res[idx[b]] {
			return res[idx[a]] > res[idx[b]]
		}
		return idx[a] < idx[b]
	})
	return idx[:m]
}
