// Package pipeline assembles the paper's full monitoring framework
// (Fig. 4): detector images are preprocessed and routed through the
// sharded streaming engine, whose ARAMS sketchers summarize the stream;
// a view projects a window of frames onto the sketch's principal
// directions, embeds it in 2-D with UMAP, clusters it with OPTICS and
// screens it for anomalies with ABOD and reconstruction residuals.
//
// Monitor is the one path from frames to a view. Process is a Monitor
// drained over a finished run, and ProcessMatrixWithBasis is the view
// stages alone, on rows and a basis the caller already has.
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
	"arams/internal/pca"
	"arams/internal/sketch"
	"arams/internal/umap"
)

// Config parameterizes the full pipeline. Zero values select sensible
// defaults for every stage.
type Config struct {
	// Pre is the per-frame preprocessing chain.
	Pre imgproc.Preprocessor
	// Sketch configures ARAMS. Ell0 defaults to 20.
	Sketch sketch.Config
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
	// Audit, when set, receives sketch-quality observations: a Monitor
	// feeds one every AuditEvery ingested frames plus rank-growth
	// journal events, and Process one per run. nil disables auditing.
	Audit *audit.Auditor
	// AuditEvery is the Monitor's frame interval between audit points
	// (default 32). Audit points are cheap — they reuse the per-batch
	// accounting the sketch already keeps — but an interval keeps the
	// journal and detector cadence independent of the repetition rate.
	AuditEvery int
	// Shards is the streaming engine's shard count (default 1): the
	// number of independent sketchers ingest is routed across, one row
	// at a time. More shards sketch concurrently and reconcile into a
	// global sketch via the tree merge when a view reads the basis, with
	// certificates composing across shards.
	Shards int
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

// Snapshot is the one view of a window of frames: its latent
// projection, 2-D embedding, clustering and anomaly scores. Row i
// belongs to the frame tagged Tags[i].
type Snapshot struct {
	// Tags are the callers' frame identifiers, oldest first (nil from
	// ProcessMatrixWithBasis, whose rows carry none).
	Tags []int
	// Latent is the n×k projection onto the sketch basis.
	Latent *mat.Matrix
	// Embedding is the n×2 UMAP embedding.
	Embedding *mat.Matrix
	// Labels are cluster labels (optics.Noise = −1 for noise).
	Labels []int
	// OutlierScores are per-point ABOF values on the embedding
	// (low = anomalous).
	OutlierScores []float64
	// Outliers are the ABOD-flagged indices, most anomalous first.
	Outliers []int
	// Residuals are per-row relative reconstruction errors
	// ‖x − VᵀVx‖²/‖x‖² against the sketch basis (high = anomalous).
	// Frames whose shape is not captured by the dominant directions —
	// the paper's "exotic beam profiles" — stand out here even when the
	// 2-D embedding pulls them into the cloud. nil from QuickSnapshot.
	Residuals []float64
	// ResidualOutliers are the contamination·n highest-residual
	// indices, most anomalous first. nil from QuickSnapshot.
	ResidualOutliers []int
	// Ell is the sketch rank the basis was cut from (0 from
	// ProcessMatrixWithBasis, which is handed only the basis).
	Ell int
	// StageTimes maps each stage that ran ("pca", "umap", "cluster",
	// "abod", "residuals") to its wall time.
	StageTimes map[string]time.Duration
}

// Process runs the pipeline over a finished run: a run Monitor whose
// window holds the whole run ingests every frame in one batch, tagged
// with its index, and is read with Snapshot. Frames the engine rejects
// (a NaN or ±Inf pixel) have no row, so Tags maps rows back to frames.
// With cfg.Audit set the one batch is one audit point, whatever
// cfg.AuditEvery says. Returns nil when no frame was ingested.
func Process(frames []*imgproc.Image, cfg Config) *Snapshot {
	cfg.AuditEvery = 1
	m := NewRunMonitor(cfg, len(frames), len(frames))
	tags := make([]int, len(frames))
	for i := range tags {
		tags[i] = i
	}
	m.IngestBatch(frames, tags)
	return m.Snapshot()
}

// ProcessMatrixWithBasis runs only the view stages — projection onto a
// precomputed basis, UMAP, clustering, ABOD, residuals — on the rows
// of x, skipping the sketch.
func ProcessMatrixWithBasis(x, basis *mat.Matrix, cfg Config) *Snapshot {
	cfg = cfg.withDefaults()
	return view(obs.SpanContext{}, cfg, basis, x, nil,
		func(latent *mat.Matrix) *mat.Matrix { return umap.Fit(latent, cfg.UMAP) })
}

// view runs the view stages inside parent's trace on the rows of x, or
// of rows when x is nil: project them onto basis, place the latent in
// 2-D with place, cluster, score, and — on x alone — take the
// residuals. An empty basis (an all-zero sketch) gives every artifact
// present but empty, so callers and the JSON/HTML expositions never see
// a nil slice on that path.
func view(parent obs.SpanContext, cfg Config, basis, x *mat.Matrix, rows [][]float32, place func(latent *mat.Matrix) *mat.Matrix) *Snapshot {
	n := len(rows)
	if x != nil {
		n = x.RowsN
	}
	snap := &Snapshot{}
	if basis.RowsN == 0 {
		snap.Latent = mat.New(n, 0)
		snap.Embedding = mat.New(n, 2)
		snap.Labels = make([]int, n)
		for i := range snap.Labels {
			snap.Labels[i] = optics.Noise
		}
		snap.OutlierScores = make([]float64, n)
		snap.Outliers = []int{}
		if x != nil {
			snap.Residuals = make([]float64, n)
			snap.ResidualOutliers = []int{}
		}
		snap.StageTimes = map[string]time.Duration{}
		return snap
	}
	stages := []engine.Stage{
		{Name: "pca", Run: func() {
			proj := pca.NewProjector(basis)
			if x != nil {
				snap.Latent = proj.Project(x)
			} else {
				snap.Latent = proj.ProjectRows(rows)
			}
		}},
		{Name: "umap", Run: func() { snap.Embedding = place(snap.Latent) }},
		{Name: "cluster", Run: func() { snap.Labels = clusterEmbedding(snap.Embedding, cfg) }},
		{Name: "abod", Run: func() {
			snap.OutlierScores = abod.Scores(snap.Embedding, abodNeighbors)
			snap.Outliers = abod.Outliers(snap.OutlierScores, contamination)
		}},
	}
	if x != nil {
		stages = append(stages, engine.Stage{Name: "residuals", Run: func() {
			snap.Residuals = residuals(x, snap.Latent)
			snap.ResidualOutliers = topResiduals(snap.Residuals, contamination)
		}})
	}
	snap.StageTimes = engine.RunStagesIn(parent, stages)
	return snap
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
