package pipeline

import (
	"sync"

	"arams/internal/abod"
	"arams/internal/engine"
	"arams/internal/imgproc"
	"arams/internal/mat"
	"arams/internal/obs"
	"arams/internal/optics"
	"arams/internal/pca"
	"arams/internal/umap"
)

// Monitor-facade observability: full-vs-quick snapshot counters. A
// QuickSnapshot that falls back to a refit increments both counters —
// the "full" count is refits, the "quick" count is calls. Ingest
// latency, window, and rank gauges live in the engine
// (arams_engine_*).
var (
	obsSnapFull  = obs.Default().Counter("arams_monitor_snapshots_total", obs.L("kind", "full"))
	obsSnapQuick = obs.Default().Counter("arams_monitor_snapshots_total", obs.L("kind", "quick"))
)

// Monitor is the online form of the pipeline: frames stream in (e.g.
// from the event builder at the machine repetition rate), the ARAMS
// sketch updates incrementally, and at any moment a Snapshot produces
// the current latent embedding, clustering, and anomaly scores over a
// sliding window of recent frames — the "live view" an instrument
// operator would watch.
//
// Monitor is a thin compatibility facade over the sharded streaming
// engine (internal/engine): Ingest/IngestBatch delegate to the engine,
// which preprocesses outside every lock, routes frames to
// Config.Shards independent sketchers, and reconciles them into a
// global sketch on demand. With Shards == 1 (the default) the behavior
// — sketch contents, sampler RNG stream, audit cadence — is identical
// to the pre-engine serial monitor. Monitor is safe for concurrent
// producers and concurrent Snapshot/State callers.
type Monitor struct {
	cfg    Config
	window int
	eng    *engine.Engine

	// mu guards only the cached UMAP model for QuickSnapshot: new
	// window points are Transform-ed into the last full embedding
	// instead of refitting, as long as the sketch rank has not changed.
	mu          sync.Mutex
	cachedModel *umap.Model
	cachedEll   int
}

// NewMonitor creates an online monitor keeping a sliding window of the
// given size for snapshots. The sketch itself summarizes the *entire*
// stream, not just the window.
func NewMonitor(cfg Config, window int) *Monitor {
	cfg = cfg.withDefaults()
	if window <= 0 {
		window = 1024
	}
	return &Monitor{cfg: cfg, window: window, eng: engine.New(engineConfig(cfg, window))}
}

// engineConfig maps the pipeline configuration onto the engine's.
func engineConfig(cfg Config, window int) engine.Config {
	return engine.Config{
		Shards:       cfg.Shards,
		IngestBuffer: cfg.IngestBuffer,
		Window:       window,
		Tenant:       cfg.Tenant,
		Pre:          cfg.Pre,
		Sketch:       cfg.Sketch,
		Audit:        cfg.Audit,
		AuditEvery:   cfg.AuditEvery,
		FrameBudget:  cfg.FrameBudget,
		Backends:     cfg.Backends,
	}
}

// Engine exposes the underlying streaming engine for callers that want
// the async queue (Enqueue/Drain/Stop) or engine-level state directly.
func (m *Monitor) Engine() *engine.Engine { return m.eng }

// Ingest preprocesses one frame and feeds it to the sketch. tag is an
// arbitrary caller identifier returned with snapshot rows.
func (m *Monitor) Ingest(im *imgproc.Image, tag int) {
	m.eng.Ingest(im, tag)
}

// IngestBatch feeds a batch of frames in one call: preprocessing fans
// out across the shared worker pool and the engine/shard locks are
// taken once per batch instead of once per frame. tags may be nil;
// otherwise it must match frames in length.
func (m *Monitor) IngestBatch(ims []*imgproc.Image, tags []int) {
	m.eng.IngestBatch(ims, tags)
}

// Ingested returns the number of frames consumed so far.
func (m *Monitor) Ingested() int { return m.eng.Ingested() }

// Ell returns the sketch's current number of retained directions
// (across all shards; merging never exceeds the max shard rank).
func (m *Monitor) Ell() int { return m.eng.Ell() }

// Snapshot holds the live view computed over the recent-frame window.
type Snapshot struct {
	Tags          []int
	Latent        *mat.Matrix
	Embedding     *mat.Matrix
	Labels        []int
	OutlierScores []float64
	Outliers      []int
	Ell           int
}

// QuickSnapshot is the low-latency variant of Snapshot for a live
// display: it reuses the UMAP model fitted by the most recent full
// Snapshot and places the current window into that embedding with an
// out-of-sample transform, refitting from scratch — on the window and
// basis it has already read — only when no model exists yet or the
// sketch rank changed (which invalidates the latent space). The
// clustering and anomaly stages run as usual.
func (m *Monitor) QuickSnapshot() *Snapshot {
	obsSnapQuick.Inc()
	sp := obs.StartTrace("quicksnapshot")
	defer sp.End()
	m.mu.Lock()
	model := m.cachedModel
	cachedEll := m.cachedEll
	m.mu.Unlock()
	w := m.eng.ReadWindow(m.cfg.LatentDim, sp.Context())
	if w.Rows == nil {
		return nil
	}
	// The window/basis/rank triple is engine-consistent (one ReadWindow
	// call); the model guard below rejects it whenever the model was fit
	// at a different rank or basis width, so a concurrent Ingest between
	// reading the cache and the window can only force a refit, never a
	// dimension-mismatched Transform.
	if model == nil || cachedEll != w.Ell || w.Basis.RowsN == 0 ||
		w.Basis.RowsN != model.InputDim() {
		obsSnapFull.Inc()
		return m.refit(sp.Context(), w,
			func(p *pca.Projector) *mat.Matrix { return p.ProjectRows(w.Rows) })
	}
	snap := &Snapshot{Tags: w.Tags, Ell: w.Ell}
	snap.Latent = pca.NewProjector(w.Basis).ProjectRows(w.Rows)
	snap.Embedding = model.Transform(snap.Latent)
	m.finishSnapshot(sp.Context(), snap)
	return snap
}

// Snapshot projects the windowed frames with the current sketch basis
// and runs the visualization stages, caching the fitted UMAP model for
// subsequent QuickSnapshot calls. It returns nil when nothing has been
// ingested yet.
//
// Unlike QuickSnapshot it still reads the window through the copying
// wrapper: benchmark/replay.go explains this call as WindowState plus
// the stages and fails a traced run whose Snapshot is more than 5 %
// cheaper than that sum, so the copy stays here until the replay goes
// (ROADMAP item 1; EXPERIMENTS.md, issue 27, has the in-place numbers).
// The copy is the window widened to float64, so the latent is the one
// QuickSnapshot projects from the ring, bit for bit.
func (m *Monitor) Snapshot() *Snapshot {
	obsSnapFull.Inc()
	sp := obs.StartTrace("snapshot")
	defer sp.End()
	x, tags, basis, ell := m.eng.WindowState(m.cfg.LatentDim, sp.Context())
	if x == nil {
		return nil
	}
	return m.refit(sp.Context(), engine.Window{Tags: tags, Basis: basis, Ell: ell},
		func(p *pca.Projector) *mat.Matrix { return p.Project(x) })
}

// refit is the full snapshot over a window already read: project it
// onto w.Basis with project, fit a fresh UMAP model and cache it,
// cluster, score — inside the caller's trace. The window's vectors may
// be the ring's own (engine.Window): only project reads them.
func (m *Monitor) refit(ctx obs.SpanContext, w engine.Window, project func(*pca.Projector) *mat.Matrix) *Snapshot {
	n := len(w.Tags)
	snap := &Snapshot{Tags: w.Tags, Ell: w.Ell}
	if w.Basis.RowsN == 0 {
		snap.Latent = mat.New(n, 0)
		snap.Embedding = mat.New(n, 2)
		snap.Labels = make([]int, n)
		for i := range snap.Labels {
			snap.Labels[i] = optics.Noise
		}
		snap.OutlierScores = make([]float64, n)
		snap.Outliers = []int{}
		return snap
	}
	var model *umap.Model
	engine.RunStagesIn(ctx, []engine.Stage{
		{Name: "pca", Run: func() {
			snap.Latent = project(pca.NewProjector(w.Basis))
		}},
		{Name: "umap", Run: func() {
			model = umap.FitModel(snap.Latent, m.cfg.UMAP)
			snap.Embedding = model.Embedding()
		}},
	})
	m.mu.Lock()
	m.cachedModel = model
	m.cachedEll = w.Ell
	m.mu.Unlock()
	m.finishSnapshot(ctx, snap)
	return snap
}

// finishSnapshot runs the clustering and anomaly stages on an
// embedding, inside the snapshot's trace.
func (m *Monitor) finishSnapshot(ctx obs.SpanContext, snap *Snapshot) {
	engine.RunStagesIn(ctx, []engine.Stage{
		{Name: "cluster", Run: func() {
			snap.Labels = clusterEmbedding(snap.Embedding, m.cfg)
		}},
		{Name: "abod", Run: func() {
			snap.OutlierScores = abod.Scores(snap.Embedding, abodNeighbors)
			snap.Outliers = abod.Outliers(snap.OutlierScores, contamination)
		}},
	})
}
