// Package engine is the sharded streaming core of the online monitor:
// each IngestBatch call is preprocessed on the shared worker pool in the
// caller's goroutine and routed round-robin to N independent shard
// sketchers. FD summaries are mergeable, so the shards' certificates
// compose without a merge (their Σδ bounds ‖AᵀA − Σ BᵢᵀBᵢ‖₂ over the
// concatenation of every shard's stream), and only a basis reader
// reconciles them into one global sketch, with the same tree merge and
// fault-recovery semantics the batch pipeline uses.
//
// The engine replaces the lock-per-frame Monitor design: CPU-heavy
// preprocessing and sketching never run under a global lock. A batch
// only takes the engine lock for ring/counter bookkeeping, then each
// shard absorbs its rows under its own lock, so shards sketch
// concurrently and snapshots interleave with ingest.
package engine

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"arams/internal/audit"
	"arams/internal/imgproc"
	"arams/internal/mat"
	"arams/internal/obs"
	"arams/internal/parallel"
	"arams/internal/sketch"
)

// Config parameterizes the streaming engine.
type Config struct {
	// Shards is the number of independent sketchers (default 1; with
	// one shard the engine is behaviorally identical to the serial
	// monitor, including RNG consumption and audit cadence).
	Shards int
	// Window is the sliding-window size for snapshots (default 1024).
	Window int
	// Tenant, when non-empty, scopes the engine's hot-path metric
	// series with a tenant="<id>" label so many engines can share one
	// process and one obs registry (the multi-tenant registry sets it).
	// Empty — the default — registers the exact unlabeled series a
	// single-stream process always exported.
	Tenant string
	// Pre is the per-frame preprocessing chain.
	Pre imgproc.Preprocessor
	// Sketch configures each shard's ARAMS sketcher. Shard i > 0
	// derives its sampling/probe RNG seed from Seed and i so shards
	// draw independent streams.
	Sketch sketch.Config
	// Audit, when set, receives one batched observation every
	// AuditEvery frames plus rank-growth journal events, exactly like
	// the pre-engine Monitor. With multiple shards the certificate is
	// the composition of the shards' own (see Certificate).
	Audit *audit.Auditor
	// AuditEvery is the frame interval between audit points (default 32).
	AuditEvery int
	// FrameBudget is the per-frame wall-time SLO, amortized over each
	// batch (default one 120 Hz machine period; negative disables
	// budget tracking). Batches that exceed it count as deadline
	// misses; a sustained burn rate over twice the budget fires the
	// flight recorder. See budget.go.
	FrameBudget time.Duration
	// Backends, when non-empty, supplies the shard backends directly —
	// the distributed-fabric hook: slot i is shard i, Shards is
	// overridden to len(Backends), and each backend is expected to be
	// configured with ShardSketchConfig(Sketch, i) so routing and RNG
	// semantics match an all-local engine exactly. Empty means the
	// engine creates Shards in-process backends itself.
	Backends []Backend
}

func (c Config) withDefaults() Config {
	if len(c.Backends) > 0 {
		c.Shards = len(c.Backends)
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Window <= 0 {
		c.Window = 1024
	}
	if c.AuditEvery <= 0 {
		c.AuditEvery = 32
	}
	return c
}

// Frame is one preprocessed frame retained in the sliding window: the
// float32 copy of the float64 vector the sketch absorbed. Vec is
// immutable while the frame is in the ring: the ring, every State and
// every Window handed out while the frame was in it, and every engine
// rebuilt from such a State may all hold the same backing array, and
// none of them writes to it. Only a vector nobody else holds is recycled
// once it leaves the ring (see State for the owning states that hand
// theirs over).
type Frame struct {
	Vec []float32
	Tag int
	// shared marks a vector that somebody besides the ring holds — State
	// or ReadWindow set it when they handed the vector out, or
	// NewFromState when it adopted the vector from a state that does not
	// own it. A shared vector is never returned to the mat vector pool:
	// when it leaves the ring the engine just drops its reference and the
	// collector frees it once the last holder does. Written and read
	// under mu. In an owning State's Frames an unset mark means the
	// vector is the state's own.
	shared bool
}

// shardResult is the audit accounting one dispatch returned.
type shardResult struct {
	ok    bool
	stats sketch.BatchStats // folded over this dispatch's rows
	ell   int
}

// Engine is the sharded streaming core. It is synchronous: ingest runs
// in the caller's goroutine, and the engine starts none of its own. It
// is safe for concurrent producers (Ingest/IngestBatch/IngestVecs) and
// concurrent snapshot and checkpoint readers.
//
// Lock order: gate → mu → shard.mu, and globalMu → mu → shard.mu;
// nothing acquires gate or globalMu while holding mu or a shard lock.
type Engine struct {
	cfg Config

	// gate serializes checkpointing against ingest: producers hold it
	// shared for the handoff, State() takes it exclusively so a
	// checkpoint sees no torn ring-vs-sketch state.
	gate sync.RWMutex

	// mu covers the ring, stream counters, and audit accumulator —
	// pointer bookkeeping only, never linear algebra.
	mu      sync.Mutex
	recent  []*Frame
	ingests int
	// absorbed counts the frames whose dispatch has finished. It trails
	// ingests while a batch is between ring append and afterDispatch,
	// and the basis cache claims only a read cut while the two agree.
	absorbed int

	// Audit accumulation (see Config.Audit). lastEll tracks the global
	// max shard rank for rank-growth journaling.
	auditAcc sketch.BatchStats
	lastEll  int

	// shards holds one Backend per shard slot (local sketchers by
	// default, remote fabric shards when Config.Backends is set). The
	// parallel slices carry the engine-owned per-shard observability:
	// frame counts (atomic — concurrent batches may land on the same
	// shard) and the frames gauge.
	shards      []Backend
	shardFrames []atomic.Int64
	shardGauges []*obs.Gauge

	// globalMu owns the basis cache of the reconciled global sketch: it
	// serializes the merges. What is cached is the basis cut from a
	// merge (globalRead), taken at ingest count readAt — not the merged
	// sketch, which is garbage once the basis is cut.
	globalMu   sync.Mutex
	read       *globalRead
	readAt     int
	reconciles int // merges so far

	// budget is the frame-budget/SLO tracker (nil when disabled).
	budget *budgetTracker

	// eo holds the engine's metric handles — tenant-labeled when
	// cfg.Tenant is set, the process-wide unlabeled series otherwise.
	eo *engineObs
}

// New creates a streaming engine.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	eo := newEngineObs(cfg.Tenant)
	e := &Engine{cfg: cfg, eo: eo, budget: newBudgetTracker(cfg, eo)}
	e.shards = append([]Backend(nil), cfg.Backends...)
	if len(e.shards) == 0 {
		e.shards = LocalBackends(cfg.Sketch, cfg.Shards, 0)
	}
	e.shardFrames = make([]atomic.Int64, cfg.Shards)
	e.shardGauges = make([]*obs.Gauge, cfg.Shards)
	for i := range e.shards {
		e.shardGauges[i] = eo.shardGauge(i)
	}
	eo.shardCount.SetInt(cfg.Shards)
	return e
}

// ShardSketchConfig derives shard i's sketch configuration: shard 0
// keeps the caller's seed verbatim (so a 1-shard engine consumes the
// RNG stream exactly like the serial monitor did), later shards mix the
// index in with a SplitMix64 step for independent sampling streams.
// Exported so benchmarks can replay a single shard's stream standalone.
func ShardSketchConfig(c sketch.Config, i int) sketch.Config {
	if i > 0 {
		c.Seed ^= splitmix64(c.Seed + uint64(i)*0x9e3779b97f4a7c15)
	}
	return c
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Ingest preprocesses one frame and feeds it to its shard. tag is an
// arbitrary caller identifier returned with snapshot rows.
func (e *Engine) Ingest(im *imgproc.Image, tag int) {
	e.IngestBatch([]*imgproc.Image{im}, []int{tag})
}

// IngestBatch preprocesses a batch of frames on the shared worker pool
// and routes them to the shards. tags may be nil (all frames tagged 0);
// otherwise it must match frames in length. The per-frame lock cost is
// amortized: one engine-lock acquisition for the whole batch, then each
// shard absorbs its rows under its own lock only. Each call is rooted
// in a fresh ingest_batch trace.
func (e *Engine) IngestBatch(ims []*imgproc.Image, tags []int) {
	if len(ims) == 0 {
		return
	}
	start := time.Now()
	root := obs.StartTrace("ingest_batch",
		obs.L("frames", fmt.Sprint(len(ims))),
		obs.L("shards", fmt.Sprint(len(e.shards))))
	spPre := root.StartChild("preprocess", obs.L("frames", fmt.Sprint(len(ims))))
	vecs := make([][]float64, len(ims))
	rows := make([][]float32, len(ims))
	mat.ParallelFor(len(ims), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			// Zero-copy handoff: the chain's working buffer comes from
			// the vector pool and its output is adopted outright — the
			// shards absorb it, with no intermediate flatten copy, and
			// it goes back to the pool once they have. The ring's
			// float32 copy is narrowed while the frame is in cache.
			im := ims[i]
			vecs[i] = e.cfg.Pre.ApplyVec(im, mat.GetVec(im.W*im.H))
			rows[i] = narrow(vecs[i])
		}
	})
	spPre.End()
	e.ingestVecsIn(&root, start, vecs, rows, tags)
	e.eo.ingestLatency.Observe(time.Since(start).Seconds())
	root.End()
}

// IngestVecs feeds already-preprocessed feature vectors to the shards.
// The engine takes ownership of the vectors: the shards absorb them, the
// window keeps a float32 copy of each, and once the batch is absorbed
// they go back to the mat vector pool. The caller must not touch them
// after the call, nor pass one vector twice.
func (e *Engine) IngestVecs(vecs [][]float64, tags []int) {
	if len(vecs) == 0 {
		return
	}
	start := time.Now()
	root := obs.StartTrace("ingest_batch",
		obs.L("frames", fmt.Sprint(len(vecs))),
		obs.L("shards", fmt.Sprint(len(e.shards))))
	rows := make([][]float32, len(vecs))
	for i, v := range vecs {
		rows[i] = narrow(v)
	}
	e.ingestVecsIn(&root, start, vecs, rows, tags)
	root.End()
}

// ingestVecsIn is the traced core of ingest: every stage of the batch —
// routing, per-shard sketching — parents under root, so one batch is one
// connected trace on /tracez. rows[i] is narrow(vecs[i]), the ring's
// copy of frame i. start is when the engine first touched the batch
// (preprocess included), the reference point for frame-budget
// accounting.
func (e *Engine) ingestVecsIn(root *obs.Span, start time.Time, vecs [][]float64, rows [][]float32, tags []int) {
	if len(vecs) == 0 {
		return
	}
	if tags != nil && len(tags) != len(vecs) {
		panic("engine: tags/frames length mismatch")
	}
	if vecs, rows, tags = e.rejectNonFinite(vecs, rows, tags); len(vecs) == 0 {
		return
	}
	e.gate.RLock()
	defer e.gate.RUnlock()

	n := len(vecs)
	// Ring append + stream-index assignment: pointer bookkeeping only.
	e.mu.Lock()
	base := e.ingests
	for i, v := range rows {
		t := 0
		if tags != nil {
			t = tags[i]
		}
		e.recent = append(e.recent, &Frame{Vec: v, Tag: t})
	}
	var recycle [][]float32
	if over := len(e.recent) - e.cfg.Window; over > 0 {
		// An evicted vector goes back to the pool unless a reader shares
		// it. No absorb reads a ring vector — the shards read the float64
		// working vectors — and State and ReadWindow mark every vector
		// they hand out, under mu, so once an unshared frame leaves the
		// ring nothing else can reach its vector; a shared one is simply
		// dropped, and stays valid for whoever holds the State or the
		// Window.
		recycle = make([][]float32, 0, over)
		for _, f := range e.recent[:over] {
			if !f.shared {
				recycle = append(recycle, f.Vec)
			}
		}
		// The slots slide out of the slice but stay in its backing array
		// until append next reallocates; cleared, they do not pin a
		// window of dead vectors until then.
		clear(e.recent[:over])
		e.recent = e.recent[over:]
	}
	e.ingests += n
	window := len(e.recent)
	e.mu.Unlock()
	for _, v := range recycle {
		mat.PutVec32(v)
	}
	root.SetAttr("stream_lo", fmt.Sprint(base))
	root.SetAttr("stream_hi", fmt.Sprint(base+n-1))

	// Route and dispatch: frame i of the stream goes to shard i mod N.
	// With one shard the batch is absorbed inline; otherwise shards with
	// work run concurrently, each under its own lock. Rows keep stream
	// order within a shard, so the result is deterministic.
	ns := len(e.shards)
	results := make([]shardResult, ns)
	if ns == 1 {
		results[0] = e.absorbTraced(root, 0, vecs, nil)
	} else {
		spRoute := root.StartChild("route")
		perShard := make([][]int, ns)
		for i := range vecs {
			si := (base + i) % ns
			perShard[si] = append(perShard[si], i)
		}
		spRoute.End()
		var wg sync.WaitGroup
		for si := 0; si < ns; si++ {
			if len(perShard[si]) == 0 {
				continue
			}
			wg.Add(1)
			go func(si int) {
				defer wg.Done()
				results[si] = e.absorbTraced(root, si, vecs, perShard[si])
			}(si)
		}
		wg.Wait()
	}
	// Every shard has absorbed its rows and kept copies of what it keeps
	// — a local sketch appends into its buffer, a sampler keeps nothing,
	// a remote shard copies into its replay log — so the working vectors
	// go back to the pool.
	for _, v := range vecs {
		mat.PutVec(v)
	}

	e.afterDispatch(results, base, n, window, start)
}

// rejectNonFinite drops every frame narrow could not copy (a nil row)
// before it reaches the ring. A dropped frame enters neither the window,
// the sketch nor the ingest count; its vector goes back to the pool and
// its tag is dropped. The batch is journaled once, and the frames are
// counted in arams_engine_frames_rejected_total. A batch with no bad
// frame is returned as it came, without a copy.
func (e *Engine) rejectNonFinite(vecs [][]float64, rows [][]float32, tags []int) ([][]float64, [][]float32, []int) {
	bad := 0
	for _, r := range rows {
		if r == nil {
			bad++
		}
	}
	if bad == 0 {
		return vecs, rows, tags
	}
	keep := make([][]float64, 0, len(vecs)-bad)
	keepRows := make([][]float32, 0, len(vecs)-bad)
	var keepTags []int
	if tags != nil {
		keepTags = make([]int, 0, len(vecs)-bad)
	}
	for i, v := range vecs {
		if rows[i] == nil {
			mat.PutVec(v)
			continue
		}
		keep = append(keep, v)
		keepRows = append(keepRows, rows[i])
		if tags != nil {
			keepTags = append(keepTags, tags[i])
		}
	}
	e.eo.rejected.Add(float64(bad))
	audit.Default().Record(audit.KindFramesRejected,
		"frames with a non-finite element rejected before ingest",
		audit.A("frames", float64(bad)),
		audit.A("batch", float64(len(vecs))))
	return keep, keepRows, keepTags
}

// narrow returns v's float32 copy for the window ring, drawn from the
// vector pool, or nil when an element of the copy is not finite: a NaN
// or ±Inf in v, or a magnitude past float32's range. One such element
// would make every snapshot projected from the ring NaN, and a NaN or
// ±Inf in v would make the shard's shrinkage and energy ledgers NaN, and
// with them the certificate and every checkpoint the stream writes. A
// copy of finite float32 elements also bounds the float64 squared norm
// the ledger adds for v (d·(3.4e38)² is far inside float64's range), so
// this one pass is the whole check.
func narrow(v []float64) []float32 {
	r := mat.GetVec32(len(v))[:len(v)]
	for i, x := range v {
		y := float32(x)
		if !(y <= math.MaxFloat32 && y >= -math.MaxFloat32) {
			mat.PutVec32(r)
			return nil
		}
		r[i] = y
	}
	return r
}

// absorbTraced wraps one shard's Backend.Absorb in a shard_sketch span
// (child of the batch root) carrying the shard index and row count,
// and keeps the per-shard frame gauge current. A failed absorb
// (only possible on remote backends that exhausted their recovery
// ladder) is journaled, fires the flight recorder, and returns ok=false
// so the audit accumulator skips the dispatch.
func (e *Engine) absorbTraced(root *obs.Span, si int, vecs [][]float64, idx []int) shardResult {
	rows := len(idx)
	if idx == nil {
		rows = len(vecs)
	}
	sp := root.StartChild("shard_sketch",
		obs.L("shard", fmt.Sprint(si)), obs.L("rows", fmt.Sprint(rows)))
	stats, err := e.shards[si].Absorb(sp.Context(), vecs, idx)
	if err != nil {
		sp.SetAttr("error", err.Error())
		sp.End()
		audit.Default().Record("shard_absorb_error",
			"shard backend failed to absorb a dispatch; rows lost from its stream",
			audit.A("shard", float64(si)),
			audit.A("rows", float64(rows)))
		obs.Default().FlightTrigger("shard_absorb_error")
		return shardResult{}
	}
	sp.End()
	if rows == 0 {
		return shardResult{}
	}
	e.shardGauges[si].SetInt(int(e.shardFrames[si].Add(int64(rows))))
	return shardResult{ok: true, stats: stats, ell: stats.EllAfter}
}

// afterDispatch folds the shard results into the audit accumulator,
// journals rank growth, flushes audit points on AuditEvery boundaries,
// refreshes gauges and feeds the frame-budget tracker. It never
// reconciles: only a basis reader merges the shards. base is the stream
// index of the batch's first frame, n the batch length, start its
// first-touch time.
func (e *Engine) afterDispatch(results []shardResult, base, n, window int, start time.Time) {
	e.mu.Lock()
	prevEll := e.lastEll
	ell := prevEll
	for _, r := range results {
		if !r.ok {
			continue
		}
		// A freshly created shard starts at Ell0, not 0: seed the
		// baseline from the dispatch so first-batch rank growth is
		// journaled relative to Ell0 like the serial monitor did.
		if prevEll == 0 && r.stats.EllBefore > prevEll {
			prevEll = r.stats.EllBefore
		}
		if r.ell > ell {
			ell = r.ell
		}
	}
	if prevEll > ell {
		ell = prevEll
	}
	e.lastEll = ell
	grewFrom := 0
	var flush sketch.BatchStats
	flushDue := false
	if e.cfg.Audit != nil {
		if ell > prevEll && prevEll > 0 {
			grewFrom = prevEll
		}
		for _, r := range results {
			if !r.ok {
				continue
			}
			e.auditAcc.Rows += r.stats.Rows
			e.auditAcc.Kept += r.stats.Kept
			e.auditAcc.TotalMass += r.stats.TotalMass
			e.auditAcc.KeptMass += r.stats.KeptMass
			e.auditAcc.DeltaAdded += r.stats.DeltaAdded
		}
		if (base+n)/e.cfg.AuditEvery > base/e.cfg.AuditEvery {
			flushDue = true
			flush = e.auditAcc
			flush.EllAfter = ell
			e.auditAcc = sketch.BatchStats{EllBefore: ell}
		}
	}
	e.absorbed += n
	e.mu.Unlock()

	if grewFrom > 0 {
		e.cfg.Audit.Journal().Record(audit.KindRankGrow, "sketch rank grew",
			audit.A("from", float64(grewFrom)),
			audit.A("to", float64(ell)),
			audit.A("frames", float64(base+n)))
	}
	if flushDue {
		// The certificate is read outside the engine lock: each shard's
		// from its live sketch, composed over the shards — for one shard
		// identical to the serial monitor's, for many a merge-free
		// statement that covers every shard's stream.
		e.cfg.Audit.ObserveBatch(flush, e.Certificate())
	}

	e.eo.framesTotal.Add(float64(n))
	e.eo.windowSize.SetInt(window)
	e.eo.engineEll.SetInt(ell)

	e.budget.observe(time.Since(start), n, base+n)
}

// Ingested returns the number of frames consumed so far.
func (e *Engine) Ingested() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ingests
}

// ShardBusy returns each shard's cumulative wall time spent absorbing
// rows. The busiest shard bounds ingest latency when shards run on
// their own cores, so max/sum over this slice is the sharded path's
// critical-path accounting (the same role parallel.Stats.CriticalPath
// plays for tree merges); benchmarks use it to project scaling beyond
// the cores the host happens to expose.
func (e *Engine) ShardBusy() []time.Duration {
	out := make([]time.Duration, len(e.shards))
	for i, s := range e.shards {
		out[i] = s.Busy()
	}
	return out
}

// Ell returns the global sketch rank. Merging grows the accumulator to
// the larger input's rank and never past it, so the merged global rank
// equals the max over shards — no reconcile needed to answer this.
func (e *Engine) Ell() int {
	ell := 0
	for _, s := range e.shards {
		if l := s.Ell(); l > ell {
			ell = l
		}
	}
	return ell
}

// globalRead is what the basis readers of a multi-shard engine take from
// a merged global sketch, cut once per merge: its basis for the k the
// cutting reader asked (at most k rows, rank-clamped) and its rank. basis
// is read-only and its storage is from mat's vector pool: every read
// hands out a view of its leading rows and counts itself a holder, and
// the array goes back to the pool once the read is no longer the cached
// one and its last holder has released it. A holder that never releases
// (WindowState's callers) leaves the array to the collector. globalMu
// guards holders.
type globalRead struct {
	basis   *mat.Matrix
	k       int // rows the cut serves; a read of more re-merges
	ell     int
	holders int
}

// readLocked returns the global read as of now for a reader of k rows:
// the cached one when no frame has been ingested since it was cut and it
// was cut for k rows or more, otherwise one cut from a fresh reconcile
// (nil when that merge has no sketch to give). The caller holds globalMu.
func (e *Engine) readLocked(parent obs.SpanContext, k int) *globalRead {
	e.mu.Lock()
	at, settled := e.ingests, e.absorbed == e.ingests
	e.mu.Unlock()
	if e.read != nil && e.readAt == at && k <= e.read.k {
		return e.read
	}
	g := e.reconcileLocked(parent)
	if g == nil {
		return nil
	}
	e.retireLocked()
	// The leading rows of SVDGramTo's product do not depend on how many
	// rows it forms (mat.TestSVDGramToLeadingRows), and the rank clamp
	// reads the same spectrum, so a view of this cut's leading rows is
	// the merged sketch's own Basis for any smaller k, bit for bit.
	b := g.Basis(k)
	if b.RowsN < k {
		k = math.MaxInt // clamped to the rank: a larger k reads the same rows
	}
	e.read = &globalRead{basis: b, k: k, ell: g.Ell()}
	// The basis is its own array, so the merged sketch is dead: its
	// buffer goes back to the pool for the next reconcile's clones.
	g.Release()
	// Cache coherence: e.ingests is bumped at ring-append time, before
	// the batch's absorbs land in shard backends. A merge that ran while
	// ingests were in flight may not cover every row counted in `at`, so
	// tagging it `at` would let a later reader cache-hit an incomplete
	// read. Serve the merge (it is the freshest view available) but only
	// claim coverage when every counted frame had been absorbed at
	// capture; the sentinel -1 never matches a real count, so the next
	// read re-merges.
	e.readAt = -1
	if settled {
		e.readAt = at
	}
	return e.read
}

// retireLocked drops the cached read: its basis goes back to the pool
// now if no reader holds it, else when the last holder releases it. The
// caller holds globalMu.
func (e *Engine) retireLocked() {
	if r := e.read; r != nil && r.holders == 0 {
		mat.PutVec(r.basis.Data)
	}
	e.read = nil
}

// unhold is a sharded Window's Release: r loses a holder, and its basis
// goes back to the pool if that was the last and r is no longer cached.
func (e *Engine) unhold(r *globalRead) {
	e.globalMu.Lock()
	defer e.globalMu.Unlock()
	r.holders--
	if r.holders == 0 && r != e.read {
		mat.PutVec(r.basis.Data)
	}
}

// reconcileLocked merges the shards into a fresh global sketch, the
// caller's to keep or release. Only the basis readers and GlobalSketch
// call it — ingest and Certificate never merge — and the caller holds
// globalMu. Shard locks are held only long enough to clone, so ingest
// proceeds during the merge itself. The reconcile span and its merge
// legs parent under the reader's span, or root their own trace when
// parent is zero.
func (e *Engine) reconcileLocked(parent obs.SpanContext) *sketch.FrequentDirections {
	sp := obs.Default().StartSpanIn(parent, "reconcile",
		obs.L("shards", fmt.Sprint(len(e.shards))))
	defer sp.End()
	// Snapshot every shard through its backend as a remote-merge leg,
	// fetched once: for local backends the fetch is an in-process clone
	// that cannot fail (bit-identical to the pre-fabric sequential
	// clone+merge, since MergeRemote folds survivors in leg order), for
	// remote ones it is a network fetch that has already run the
	// backend's own recovery (reconnect, restore + replay, bit-exact
	// local fallback). A leg that still fails is dropped: the merge
	// covers only the surviving shards' streams, MergeRemote journals
	// the loss, and the next reconcile asks the shard again.
	legs := make([]parallel.RemoteLeg, len(e.shards))
	for i, s := range e.shards {
		legs[i] = parallel.RemoteLeg{Name: "shard" + fmt.Sprint(i), Fetch: s.Snapshot}
	}
	g, _, rep := parallel.MergeRemote(legs, sp.Context())
	if rep.Degraded() {
		sp.SetAttr("degraded_legs", fmt.Sprint(rep.Dropped))
	}
	if g == nil {
		return nil
	}
	e.reconciles++
	e.eo.reconciles.Inc()
	return g
}

// Certificate returns the error-bound certificate of the stacked shard
// sketches: the audit.Compose of every shard's own certificate, which
// for one shard is that shard's certificate. Stacked FD sketches are a
// sketch of the whole stream (AᵀA − Σ BᵢᵀBᵢ ≼ (Σ δᵢ) I), so no merge is
// needed, and the result is what State's shard ledgers compose to. A
// shard that cannot answer (any after Close; a remote one recovers its
// own transport faults, so only a fatal or decode error) is left out and
// journaled as a lost leg: the certificate's Rows then fall short of
// Ingested, and the next call asks the shard again.
func (e *Engine) Certificate() audit.Certificate {
	var cert audit.Certificate
	for i, s := range e.shards {
		c, err := s.Certificate()
		if err != nil {
			audit.Default().Record(audit.KindRemoteLegLost,
				"shard certificate unavailable; composed certificate omits its rows",
				audit.A("leg", float64(i)))
			continue
		}
		cert = audit.Compose(cert, c)
	}
	return cert
}

// GlobalSketch returns the global sketch as of now, the caller's to
// mutate or release (nil before the first frame). For one shard it is a
// copy of the live sketch; for many it is a fresh merge, never a cache
// hit, and it leaves the basis cache alone.
func (e *Engine) GlobalSketch() *sketch.FrequentDirections {
	if len(e.shards) == 1 {
		fd, err := e.shards[0].Snapshot(obs.SpanContext{})
		if err != nil {
			return nil
		}
		return fd
	}
	e.globalMu.Lock()
	defer e.globalMu.Unlock()
	return e.reconcileLocked(obs.SpanContext{})
}

// Window is one read of the sliding window together with the global
// basis to project it on. Rows are the ring's own float32 vectors,
// oldest first, shared, not copied: holders may read them for as long as
// they like (the ring never recycles a vector it has handed out, however
// far the stream runs on) and must not write to them or hand them to
// mat.PutVec32. Basis is borrowed from mat's vector pool — for one shard
// an array of its own, for many a view of the engine's basis cache — and
// is read-only: it keeps its bits until the read is released (a later
// merge cuts a new basis rather than rewrite this one) and may be reused
// by another read after. Tags and Ell are the reader's own.
type Window struct {
	Rows  [][]float32
	Tags  []int
	Basis *mat.Matrix // top-k right singular vectors, k clamped to the rank; read-only
	Ell   int
	lease *lease
}

// lease is one read's claim on the storage under its Basis: for one
// shard the pooled array the basis was cut into, for many the cached
// read the basis views. done makes a second Release a no-op.
type lease struct {
	done atomic.Bool
	buf  []float64   // one shard
	e    *Engine     // many shards
	read *globalRead // many shards
}

// Release gives the read's basis back once its reader is done with it:
// neither Basis nor any view of it may be read afterwards. The Rows stay
// valid. Every copy of a Window is the same read, so only the first
// Release of any of them gives anything back; later ones, and a Release
// of the zero Window, do nothing. A read that is never released leaves
// its basis to the collector.
func (w Window) Release() {
	l := w.lease
	if l == nil || !l.done.CompareAndSwap(false, true) {
		return
	}
	if l.read != nil {
		l.e.unhold(l.read)
		return
	}
	mat.PutVec(l.buf)
}

// ReadWindow reads the sliding window in place, with the current global
// basis, for the snapshot stages, which run outside every engine lock.
// Under mu it takes n slice headers and tags and marks the frames shared;
// no vector is copied. Rows is nil before the first frame. parent is the
// reader's span (a snapshot's trace root): the reconcile this read may
// force lands inside that trace. The reader calls Release once its
// stages have run, so the basis storage goes back to mat's pool.
//
// For one shard the basis is decomposed from the live sketch into a
// pooled array of the read's own. For many it is a view of the cached
// read (see globalRead), cut from the last merge for k rows or more.
func (e *Engine) ReadWindow(k int, parent obs.SpanContext) Window {
	e.mu.Lock()
	n := len(e.recent)
	if n == 0 {
		e.mu.Unlock()
		return Window{}
	}
	w := Window{Rows: make([][]float32, n), Tags: make([]int, n)}
	for i, f := range e.recent {
		f.shared = true
		w.Rows[i], w.Tags[i] = f.Vec, f.Tag
	}
	e.mu.Unlock()

	w.Basis, w.Ell, w.lease = e.basis(parent, k)
	if w.Basis == nil {
		return Window{}
	}
	return w
}

// basis returns ReadWindow's basis, rank and the lease that gives the
// basis back; (nil, 0, nil) before the first frame.
func (e *Engine) basis(parent obs.SpanContext, k int) (*mat.Matrix, int, *lease) {
	if len(e.shards) == 1 {
		b, ell := e.shards[0].Basis(k)
		if b == nil {
			return nil, 0, nil
		}
		return b, ell, &lease{buf: b.Data}
	}
	e.globalMu.Lock()
	defer e.globalMu.Unlock()
	r := e.readLocked(parent, k)
	if r == nil {
		return nil, 0, nil
	}
	r.holders++
	return r.basis.Rows(0, max(0, min(k, r.basis.RowsN))), r.ell, &lease{e: e, read: r}
}

// WindowState is ReadWindow with the window widened into a float64
// matrix. Its caller is benchmark/replay.go; it has no other reason to
// exist, so it goes when the replay does.
//
// x's storage comes from mat.GetVec and x is the caller's: once nothing
// reads x, the caller may hand x.Data to mat.PutVec, so the next read
// reuses the array, or simply drop it. Tags are the caller's too. basis
// is Window.Basis, read-only, and its read is never released: the caller
// may read it for as long as it likes, and its storage goes to the
// collector rather than back to the pool.
func (e *Engine) WindowState(k int, parent ...obs.SpanContext) (x *mat.Matrix, tags []int, basis *mat.Matrix, ell int) {
	var in obs.SpanContext
	if len(parent) > 0 {
		in = parent[0]
	}
	w := e.ReadWindow(k, in)
	if w.Rows == nil {
		return nil, nil, nil, 0
	}
	return w.Widen(), w.Tags, w.Basis, w.Ell
}

// Widen returns the window's rows widened into an n×d float64 matrix
// whose storage comes from mat.GetVec and is the caller's (see
// WindowState). Nil for the zero Window.
func (w Window) Widen() *mat.Matrix {
	if w.Rows == nil {
		return nil
	}
	n, d := len(w.Rows), len(w.Rows[0])
	x := mat.FromData(n, d, mat.GetVec(n*d))
	for i, r := range w.Rows {
		mat.Widen(x.Row(i), r)
	}
	return x
}

// Close returns what the engine owns to the mat vector pool and closes
// every shard backend — for remote backends this tears down their
// connections and aborts in-flight work. What it owns is every window
// vector it never handed out (State, ReadWindow and a restore from a
// shared state mark theirs; those stay valid for their holders) and
// every local shard's sketch blocks, including the vectors and blocks it
// adopted from an owning state, and the cached read's basis once no
// reader holds it. So a decoded state that is restored and then closed
// gives back everything its decode drew from the pool. The engine must
// not be used after Close, except to Release the Windows it handed out.
// Returns the first backend close error.
func (e *Engine) Close() error {
	e.globalMu.Lock()
	e.retireLocked()
	e.globalMu.Unlock()
	e.gate.Lock()
	e.mu.Lock()
	var recycle [][]float32
	for _, f := range e.recent {
		if !f.shared {
			recycle = append(recycle, f.Vec)
		}
	}
	clear(e.recent)
	e.recent = nil
	e.mu.Unlock()
	e.gate.Unlock()
	for _, v := range recycle {
		mat.PutVec32(v)
	}
	return e.closeBackends()
}

func (e *Engine) closeBackends() error {
	var first error
	for _, s := range e.shards {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
