package main

import (
	"math"
)

// The workload and metric tables below are the benchmark's definition:
// BENCHMARK.json is generated from them (-manifest) and a test fails
// when the committed file disagrees.

// Pipeline constants shared by every workload (lclsmon's sketch
// defaults; the UMAP size is the one the sizing runs used).
const (
	sketchEll   = 25
	sketchBeta  = 0.9
	latentDim   = 12
	umapNbrs    = 10
	umapEpochs  = 80
	batchFrames = 32 // frames per IngestBatch call
	setupRuns   = 7  // fresh instances set up per run
	// setupBefore of them run before the measured cycles (the last of
	// these is the instance measured) and bring the process to its warm
	// state; the rest run between cycles a quarter of the run apart, so
	// that a burst of interference a second long spoils one of the warm
	// samples, not the second-fastest of all seven.
	setupBefore = 4
	minSamples  = 30 // no wall-clock metric is reported from fewer
	// restoresPerCycle: a restore is short and allocation-heavy, the
	// noisiest sample of all, and it sits outside the cycle clock, so a
	// single-stream cycle takes three.
	restoresPerCycle = 3
	// runSeconds is BENCHMARK.json's run_seconds: the -seconds value at
	// which every workload runs its nominal cycle count.
	runSeconds = 15
)

type streamKind int

const (
	beam streamKind = iota
	diffraction
)

// workload is one named set of inputs. Work is fixed by count: a run
// executes Cycles(seconds) identical cycles, never "as many as fit".
type workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why string
	// Procs pins GOMAXPROCS (never above the host's CPU count).
	Procs int
	// Tenants > 0 runs the stream mix through tenant.Registry.
	Tenants int
	Kind    streamKind
	Size    int // square frame side; d = Size²
	Pool    int // pre-generated frames (per tenant for tenant_churn)
	Shards  int
	Window  int
	Audit   bool // private auditor on the monitor, as lclsmon attaches
	// Cycle shape: S frames ingested, then Q QuickSnapshots and F
	// Snapshots, an optional /metrics scrape, one checkpoint.
	S, Q, F int
	Scrape  bool
	// Warmup frames are ingested during set-up, before the first Snapshot.
	Warmup int
	// ReplayFrames is how many of a cycle's frames the traced pass
	// replays through the inner layers (a multiple of ℓ so every replay
	// holds the same number of FD rotations).
	ReplayFrames int
	// NominalCycles is the cycle count at runSeconds.
	NominalCycles int
}

// Cycles scales the cycle count with -seconds from the nominal rate.
// The clock never decides how much work a run does.
func (w workload) Cycles(seconds int) int {
	c := int(math.Round(float64(w.NominalCycles) * float64(seconds) / runSeconds))
	return max(c, minSamples)
}

func (w workload) Dim() int { return w.Size * w.Size }

// FramesPerCycle is the number of frames one cycle ingests.
func (w workload) FramesPerCycle() int {
	if w.Tenants > 0 {
		return w.Tenants * w.S
	}
	return w.S
}

var workloads = []workload{
	{
		Name: "beam_serial",
		Why: "GOMAXPROCS=1 ingest-bound baseline (beam 64x64, 1 shard): most of the cycle is IngestBatch, " +
			"most of that FD rotation; imgproc/sketch/mat kernel changes show here first.",
		Procs: 1, Kind: beam, Size: 64, Pool: 1024, Shards: 1, Window: 256, Audit: true,
		S: 1024, Q: 1, F: 1, Warmup: 512, ReplayFrames: 4 * sketchEll, NominalCycles: 30,
	},
	{
		Name: "diff_sharded",
		Why: "Wide rows (diffraction 128x128, d=16384), 2 shards, adaptive reconcile, GOMAXPROCS=2: routing, " +
			"concurrent absorb, tree-merge reconciles, state-size-bound checkpoint/restore.",
		Procs: 2, Kind: diffraction, Size: 128, Pool: 256, Shards: 2, Window: 128,
		S: 256, Q: 1, F: 1, Warmup: 512, ReplayFrames: 2 * sketchEll, NominalCycles: 30,
	},
	{
		Name: "beam_liveview",
		Why: "Operator read path beside a light write path (window 512, 2 QuickSnapshots + Snapshot + /metrics scrape " +
			"per 128 frames): pca/umap/optics/abod dominate; an ingest change must show no change here.",
		Procs: 2, Kind: beam, Size: 64, Pool: 1024, Shards: 1, Window: 512, Audit: true,
		S: 128, Q: 2, F: 1, Scrape: true, Warmup: 512, ReplayFrames: 2 * sketchEll, NominalCycles: 30,
	},
	{
		Name: "tenant_churn",
		Why: "8 tenants (4 beam + 4 diffraction 64x64) through tenant.Registry: restore, Append 128, Drain, Hibernate " +
			"per tenant per cycle; checkpoint write-then-read churn plus the fair-share pump.",
		Procs: 2, Tenants: 8, Kind: beam, Size: 64, Pool: 256, Shards: 1, Window: 128, Audit: true,
		S: 128, Q: 1, F: 1, Warmup: 512, ReplayFrames: 2 * sketchEll, NominalCycles: 30,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one named number the benchmark prints.
type metric struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed worsening of the median
	Stat   string  // how the number is formed from its samples
	Layer  string  // per-layer only: module name
	Moves  string  // which end-to-end metric it should move, and where
	// Demoted is set on an end-to-end metric that did not repeat within
	// its bound on this host and gives the reason. It is still measured,
	// printed and judged by -compare against Bound, but BENCHMARK.json
	// lists it among the unbounded per-layer metrics, so the driver reads
	// it from the traced pass and enforces nothing on it.
	Demoted string
}

const (
	lower  = "lower"
	higher = "higher"
	// setupBound: the driver's contract keeps setup_s among the bounded
	// end-to-end metrics, so it cannot be demoted with the other
	// wall-clock metrics, and it shares their noise; the contract asks
	// that it carry the largest bound.
	setupBound = 0.25
	// hostSpeed is why no wall-clock metric but setup_s is bounded in
	// BENCHMARK.json; README.md, "Noise", has the measurements.
	hostSpeed = "the host runs 10-30 % slower for minutes at a time and every sample of a run with it: " +
		"quartile spread over ten runs 1-21 %, single runs up to 30 % from their set's median, against a bound of 0.10"
	// seedSpread is why cov_err_rel is not: it is exact, and identical run
	// to run at one seed, but the driver takes its spread over ten seeds.
	seedSpread = "exact at one seed, but other frames give another error: quartile spread over ten seeds 3.2-4.8 %, " +
		"within 0.05 only just; a pool large enough to bring it under a third of the bound does not fit a run at d=16384"
)

// endToEnd are the nine metrics a user of the system sees; the same
// nine on every workload, printed by the untraced pass.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: setupBound,
		Stat: "second-fastest of 7 fresh set-ups (construct, 512 warm-up frames, first Snapshot), 4 before the cycles and 3 between them"},
	{Name: "frames_per_s", Unit: "1/s", Better: higher, Bound: 0.10, Demoted: hostSpeed,
		Stat: "frames per cycle / p25(cycle wall: ingest + snapshots + checkpoint)"},
	{Name: "snapshot_ms", Unit: "ms", Better: lower, Bound: 0.10, Demoted: hostSpeed, Stat: "p25 Monitor.Snapshot"},
	{Name: "quick_snapshot_ms", Unit: "ms", Better: lower, Bound: 0.10, Demoted: hostSpeed, Stat: "p25 Monitor.QuickSnapshot"},
	{Name: "checkpoint_ms", Unit: "ms", Better: lower, Bound: 0.10, Demoted: hostSpeed,
		Stat: "p25 State+ckpt.Save (tenant_churn: Registry.Hibernate)"},
	{Name: "restore_ms", Unit: "ms", Better: lower, Bound: 0.10, Demoted: hostSpeed,
		Stat: "p25 ckpt.Load+NewMonitorFromState (tenant_churn: Registry.Monitor on a hibernated tenant)"},
	{Name: "alloc_bytes_per_frame", Unit: "B", Better: lower, Bound: 0.05,
		Stat: "TotalAlloc delta over the measured cycles / frames"},
	{Name: "heap_live_mb", Unit: "MB", Better: lower, Bound: 0.05,
		Stat: "HeapAlloc after two GCs at the end (tenant_churn: all tenants resident) minus the same reading after pool generation"},
	{Name: "cov_err_rel", Unit: "ratio", Better: lower, Bound: 0.05, Demoted: seedSpread,
		Stat: "CovErr(A, B)/|A|_F^2, exact for the stream fed (tenant_churn: mean over tenants)"},
}

// bounded are the end-to-end metrics BENCHMARK.json bounds; demoted are
// the rest.
func bounded() (out []metric) {
	for _, m := range endToEnd {
		if m.Demoted == "" {
			out = append(out, m)
		}
	}
	return out
}

func demoted() (out []metric) {
	for _, m := range endToEnd {
		if m.Demoted != "" {
			out = append(out, m)
		}
	}
	return out
}

// perLayer are the traced-pass metrics, one module per layer. Timings
// are p25 over the traced cycles; counts are exact.
var perLayer = []metric{
	{Name: "lcls.gen_us_per_frame", Unit: "us/frame", Better: lower, Layer: "lcls", Stat: "pool generation / frames",
		Moves: "nothing (load generator; excluded from setup_s)"},

	{Name: "imgproc.applyvec_us_per_frame", Unit: "us/frame", Better: lower, Layer: "imgproc", Stat: "p25 replay",
		Moves: "frames_per_s on beam_serial, diff_sharded"},

	{Name: "sketch.process_batch_us_per_frame", Unit: "us/frame", Better: lower, Layer: "sketch", Stat: "p25 replay",
		Moves: "frames_per_s on beam_serial, diff_sharded; no change on beam_liveview"},
	{Name: "sketch.rank_adaptive_us_per_frame", Unit: "us/frame", Better: lower, Layer: "sketch", Stat: "p25 replay",
		Moves: "nothing end to end (rank adaptation is off in every workload); context for a later ablation"},
	{Name: "sketch.rotations", Unit: "count", Better: lower, Layer: "sketch", Stat: "FD rotations over the measured cycles",
		Moves: "with mat.svdgram_ms gives the rotation share of ingest"},
	{Name: "sketch.accept_rate", Unit: "ratio", Better: higher, Layer: "sketch", Stat: "rows kept / rows offered in the replay",
		Moves: "nothing; 1.0 while the engine feeds the sampler one row at a time"},
	{Name: "sketch.ell_final", Unit: "count", Better: lower, Layer: "sketch", Stat: "rank of the final global sketch",
		Moves: "nothing; fixed rank"},

	{Name: "mat.svdgram_ms", Unit: "ms", Better: lower, Layer: "mat", Stat: "p25 SVDGramTo on a 2l x d buffer",
		Moves: "frames_per_s on beam_serial, diff_sharded (svdgram_ms x rotations / frames is the rotation share)"},
	{Name: "mat.gram_ms", Unit: "ms", Better: lower, Layer: "mat", Stat: "p25 GramTo, same shape",
		Moves: "part of svdgram_ms"},
	{Name: "mat.mulabt_ms", Unit: "ms", Better: lower, Layer: "mat", Stat: "p25 MulABtTo, window x d by k x d",
		Moves: "quick_snapshot_ms, snapshot_ms everywhere (the pca projection)"},

	{Name: "parallel.merge_ms", Unit: "ms", Better: lower, Layer: "parallel", Stat: "p25 MergeSketches of two half-stream FDs",
		Moves: "frames_per_s, snapshot_ms, quick_snapshot_ms on diff_sharded only"},
	{Name: "parallel.merge_rotations", Unit: "count", Better: lower, Layer: "parallel", Stat: "rotations in one such merge",
		Moves: "parallel.merge_ms"},

	{Name: "engine.ingest_batch_us_per_frame", Unit: "us/frame", Better: lower, Layer: "engine", Stat: "p25 per-cycle IngestBatch time / frames",
		Moves: "frames_per_s on every ingest-bound workload"},
	{Name: "engine.ingest_vecs_us_per_frame", Unit: "us/frame", Better: lower, Layer: "engine", Stat: "p25 replay, IngestVecs on a shadow engine",
		Moves: "engine.ingest_batch_us_per_frame minus preprocessing"},
	{Name: "engine.self_us_per_frame", Unit: "us/frame", Better: lower, Layer: "engine", Stat: "ingest_batch - applyvec - process_batch",
		Moves: "frames_per_s on every ingest-bound workload"},
	{Name: "engine.global_sketch_ms", Unit: "ms", Better: lower, Layer: "engine", Stat: "p25 GlobalSketch on the shadow engine (reconciles when sharded)",
		Moves: "snapshot_ms, quick_snapshot_ms on diff_sharded"},
	{Name: "engine.certificate_ms", Unit: "ms", Better: lower, Layer: "engine", Stat: "p25 Certificate on the shadow engine",
		Moves: "frames_per_s where an auditor is attached (one per 32 frames)"},
	{Name: "engine.reconciles", Unit: "count", Better: lower, Layer: "engine", Stat: "global-sketch rebuilds over the run; repeats exactly",
		Moves: "frames_per_s on diff_sharded (x parallel.merge_ms)"},
	{Name: "engine.shard_busy_skew", Unit: "ratio", Better: lower, Layer: "engine", Stat: "max / mean of ShardBusy",
		Moves: "frames_per_s on diff_sharded"},
	{Name: "engine.batch_p50_ms", Unit: "ms", Better: lower, Layer: "engine", Stat: "p50 of every IngestBatch call",
		Moves: "context: bimodal (one or two rotations per batch), unbounded"},
	{Name: "engine.batch_p99_ms", Unit: "ms", Better: lower, Layer: "engine", Stat: "p99 of every IngestBatch call",
		Moves: "context: unbounded"},

	{Name: "pipeline.window_state_ms", Unit: "ms", Better: lower, Layer: "pipeline", Stat: "p25 Engine.WindowState",
		Moves: "snapshot_ms, quick_snapshot_ms"},
	{Name: "pipeline.state_ms", Unit: "ms", Better: lower, Layer: "pipeline", Stat: "p25 Monitor.State (holds the ingest gate)",
		Moves: "checkpoint_ms"},
	{Name: "pipeline.from_state_ms", Unit: "ms", Better: lower, Layer: "pipeline", Stat: "p25 NewMonitorFromState",
		Moves: "restore_ms"},
	{Name: "pipeline.snapshot_self_ms", Unit: "ms", Better: lower, Layer: "pipeline", Stat: "snapshot_ms - (window_state + pca + umap + optics + abod)",
		Moves: "snapshot_ms"},
	{Name: "pipeline.residuals_ms", Unit: "ms", Better: lower, Layer: "pipeline", Stat: "p25 StageTimes[residuals]",
		Moves: "nothing in Snapshot (batch path only)"},

	{Name: "pca.project_ms", Unit: "ms", Better: lower, Layer: "pca", Stat: "p25 StageTimes[pca]",
		Moves: "snapshot_ms, quick_snapshot_ms"},
	{Name: "umap.fit_ms", Unit: "ms", Better: lower, Layer: "umap", Stat: "p25 StageTimes[umap]",
		Moves: "snapshot_ms everywhere; frames_per_s on beam_liveview"},
	{Name: "optics.cluster_ms", Unit: "ms", Better: lower, Layer: "optics", Stat: "p25 StageTimes[cluster]",
		Moves: "snapshot_ms, quick_snapshot_ms; frames_per_s on beam_liveview"},
	{Name: "abod.scores_ms", Unit: "ms", Better: lower, Layer: "abod", Stat: "p25 StageTimes[abod]",
		Moves: "snapshot_ms, quick_snapshot_ms"},

	{Name: "ckpt.marshal_ms", Unit: "ms", Better: lower, Layer: "ckpt", Stat: "p25 Marshal of the cycle's state",
		Moves: "checkpoint_ms"},
	{Name: "ckpt.unmarshal_ms", Unit: "ms", Better: lower, Layer: "ckpt", Stat: "p25 Unmarshal of those bytes",
		Moves: "restore_ms"},
	{Name: "ckpt.save_ms", Unit: "ms", Better: lower, Layer: "ckpt", Stat: "p25 Save",
		Moves: "checkpoint_ms on diff_sharded; frames_per_s on tenant_churn"},
	{Name: "ckpt.load_ms", Unit: "ms", Better: lower, Layer: "ckpt", Stat: "p25 Load",
		Moves: "restore_ms"},
	{Name: "ckpt.bytes", Unit: "B", Better: lower, Layer: "ckpt", Stat: "size of the last checkpoint frame",
		Moves: "checkpoint_ms, restore_ms"},

	{Name: "audit.cert_tightness", Unit: "ratio", Better: lower, Layer: "audit", Stat: "CovBound / exact cov err; must stay >= 1",
		Moves: "quality guard beside cov_err_rel"},
	{Name: "audit.journal_events", Unit: "count", Better: lower, Layer: "audit", Stat: "events journaled over the run",
		Moves: "ckpt.bytes"},

	{Name: "tenant.pump_us_per_frame", Unit: "us/frame", Better: lower, Layer: "tenant", Stat: "p25 (Append+Drain) - direct IngestBatch of the same frames",
		Moves: "frames_per_s on tenant_churn only"},
	{Name: "tenant.hibernate_ms", Unit: "ms", Better: lower, Layer: "tenant", Stat: "p25 Registry.Hibernate",
		Moves: "checkpoint_ms on tenant_churn"},
	{Name: "tenant.restore_ms", Unit: "ms", Better: lower, Layer: "tenant", Stat: "p25 Registry.Monitor on a hibernated tenant",
		Moves: "restore_ms on tenant_churn"},
	{Name: "tenant.hibernations", Unit: "count", Better: lower, Layer: "tenant", Stat: "arams_tenant_hibernations_total over the cycles",
		Moves: "frames_per_s on tenant_churn"},
	{Name: "tenant.restores", Unit: "count", Better: lower, Layer: "tenant", Stat: "arams_tenant_restores_total over the cycles",
		Moves: "frames_per_s on tenant_churn"},
	{Name: "tenant.ckpt_bytes", Unit: "B", Better: lower, Layer: "tenant", Stat: "mean hibernation file size",
		Moves: "checkpoint_ms, restore_ms on tenant_churn"},

	{Name: "obs.scrape_ms", Unit: "ms", Better: lower, Layer: "obs", Stat: "p25 GET /metrics through obs.Handler",
		Moves: "frames_per_s on beam_liveview"},
	{Name: "obs.scrape_bytes", Unit: "B", Better: lower, Layer: "obs", Stat: "size of the last exposition",
		Moves: "obs.scrape_ms"},

	{Name: "runtime.cpu_us_per_frame", Unit: "us/frame", Better: lower, Layer: "runtime", Stat: "process CPU (rusage) over the cycles / frames",
		Moves: "context: explains the GOMAXPROCS 1-vs-2 gap"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: lower, Layer: "runtime", Stat: "NumGC delta over the cycles",
		Moves: "context"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: lower, Layer: "runtime", Stat: "PauseTotalNs delta over the cycles",
		Moves: "context"},
	{Name: "runtime.peak_rss_mb", Unit: "MB", Better: lower, Layer: "runtime", Stat: "rusage max RSS",
		Moves: "context"},
}

// setupDue reports whether one of the later set-ups is due after cycle
// c of n: at each quarter of the run until setupRuns are done. A run too
// short to have quarters makes up the rest after its last cycle.
func setupDue(done, c, n int) bool {
	return done < setupRuns && (c+1)%max(n/4, 1) == 0
}
