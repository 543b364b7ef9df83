package pipeline

import (
	"sync"

	"arams/internal/engine"
	"arams/internal/imgproc"
	"arams/internal/mat"
	"arams/internal/obs"
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
// Monitor is a thin facade over the sharded streaming engine
// (internal/engine): Ingest/IngestBatch delegate to the engine, which
// preprocesses outside every lock, routes frames to Config.Shards
// independent sketchers, and reconciles them into a global sketch when
// a view reads the basis. One producer feeds a Monitor while any
// number of goroutines call Snapshot, QuickSnapshot, State and Suspend.
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

// NewRunMonitor is NewMonitor for a stream of a known number of
// frames, such as a stored run: unless cfg.Backends supplies the
// shards, each in-process shard is told how many frames it will be
// routed (engine.LocalBackends), so rank adaptation keeps Algorithm 2's
// guard against growing ℓ within the last ℓ+ν rows of the stream.
func NewRunMonitor(cfg Config, window, frames int) *Monitor {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		cfg.Backends = engine.LocalBackends(cfg.Sketch, cfg.Shards, frames)
	}
	return NewMonitor(cfg, window)
}

// engineConfig maps the pipeline configuration onto the engine's.
func engineConfig(cfg Config, window int) engine.Config {
	return engine.Config{
		Shards:      cfg.Shards,
		Window:      window,
		Tenant:      cfg.Tenant,
		Pre:         cfg.Pre,
		Sketch:      cfg.Sketch,
		Audit:       cfg.Audit,
		AuditEvery:  cfg.AuditEvery,
		FrameBudget: cfg.FrameBudget,
		Backends:    cfg.Backends,
	}
}

// Engine exposes the underlying streaming engine for callers that want
// engine-level state directly (certificates, shard counters, the
// global sketch).
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

// QuickSnapshot is the low-latency variant of Snapshot for a live
// display: it reads the window in place, reuses the UMAP model fitted
// by the most recent full Snapshot and places the window into that
// embedding with an out-of-sample transform, refitting from scratch —
// on the window and basis it has already read — only when no model
// exists yet or the sketch rank changed (which invalidates the latent
// space). The clustering and anomaly stages run as usual; the residual
// fields stay nil. The read's frames and basis go back to mat's vector
// pool once the stages return: every field of the Snapshot is a fresh
// slice.
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
	place := model.Transform
	if model == nil || cachedEll != w.Ell || w.Basis.RowsN == 0 ||
		w.Basis.RowsN != model.InputDim() {
		obsSnapFull.Inc()
		place = m.fit(w.Ell)
	}
	snap := view(sp.Context(), m.cfg, w.Basis, nil, w.Rows, place)
	w.Release()
	snap.Tags, snap.Ell = w.Tags, w.Ell
	return snap
}

// Snapshot is ProcessMatrixWithBasis over the window and the current
// sketch basis, inside one "snapshot" trace, caching the fitted UMAP
// model for subsequent QuickSnapshot calls. It returns nil when nothing
// has been ingested yet.
//
// Unlike QuickSnapshot it widens the window into a float64 copy first:
// benchmark/replay.go explains this call as Engine.WindowState plus the
// stages and fails a traced run whose Snapshot is more than 5 % cheaper
// than that sum, so the copy stays here until the replay goes
// (EXPERIMENTS.md, issue 27, has the in-place numbers). The latent is
// the one QuickSnapshot projects from the ring, bit for bit, and the
// residuals are taken against the copy. The copy, and the read's frames
// and basis, go back to mat's vector pool once the stages return — every
// field of the Snapshot is a fresh slice, none a view of any of them — so
// the next Snapshot copies into the same array and cuts into the same
// basis, and a frame the read held is recycled once it leaves the window.
func (m *Monitor) Snapshot() *Snapshot {
	obsSnapFull.Inc()
	sp := obs.StartTrace("snapshot")
	defer sp.End()
	w := m.eng.ReadWindow(m.cfg.LatentDim, sp.Context())
	if w.Rows == nil {
		return nil
	}
	x := w.Widen()
	snap := view(sp.Context(), m.cfg, w.Basis, x, nil, m.fit(w.Ell))
	mat.PutVec(x.Data)
	w.Release()
	snap.Tags, snap.Ell = w.Tags, w.Ell
	return snap
}

// fit returns the placement that fits a fresh UMAP model on the latent
// and caches it for QuickSnapshot at sketch rank ell.
func (m *Monitor) fit(ell int) func(latent *mat.Matrix) *mat.Matrix {
	return func(latent *mat.Matrix) *mat.Matrix {
		model := umap.FitModel(latent, m.cfg.UMAP)
		m.mu.Lock()
		m.cachedModel, m.cachedEll = model, ell
		m.mu.Unlock()
		return model.Embedding()
	}
}
