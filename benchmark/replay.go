package main

import (
	"fmt"
	"sync"
	"time"

	"arams/internal/ckpt"
	"arams/internal/engine"
	"arams/internal/imgproc"
	"arams/internal/mat"
	"arams/internal/parallel"
	"arams/internal/pipeline"
	"arams/internal/sketch"
)

// replayer drives the inner layers through their public entry points.
// They are not reachable through Monitor, so each traced cycle replays
// a fixed slice of that cycle's frames through them, outside the cycle
// clock: preprocessing, the sketch with the engine's own routing and
// per-row feeding, a rank-adaptive sketch, a shadow engine fed
// preprocessed vectors, the snapshot stages, the codec, and the mat and
// parallel kernels at the workload's shapes.
type replayer struct {
	w   workload
	cfg pipeline.Config
	rec *recorder

	shards []*sketch.ARAMS // fixed rank, one per engine shard
	rowHdr []mat.Matrix    // reusable 1×d headers, one per shard
	ra     *sketch.ARAMS   // rank-adaptive (ε=0.05, ν=6)
	shadow *pipeline.Monitor
	fed    int // frames the shadow engine and sketches have seen

	halfA, halfB *sketch.FrequentDirections
	svdBuf, vt   *mat.Matrix
	gram         *mat.Matrix
	sigma        []float64
	proj         *mat.Matrix

	kept, offered int
	mergeRot      int
	ckptBytes     int
	scrapeBytes   int
}

func newReplayer(w workload, warm []*imgproc.Image, rec *recorder) *replayer {
	cfg := pipelineConfig(w)
	d := w.Dim()
	rp := &replayer{w: w, cfg: cfg, rec: rec}
	for i := 0; i < w.Shards; i++ {
		rp.shards = append(rp.shards, sketch.NewARAMS(engine.ShardSketchConfig(cfg.Sketch, i), d, 0))
	}
	rp.rowHdr = make([]mat.Matrix, w.Shards)
	raCfg := cfg.Sketch
	raCfg.RankAdaptive, raCfg.Eps, raCfg.Nu = true, 0.05, 6
	rp.ra = sketch.NewARAMS(raCfg, d, 0)
	rp.shadow = pipeline.NewMonitor(cfg, w.Window)

	// Bring the standalone sketches and the shadow engine to the state
	// the measured monitor has after set-up, so the replay times steady
	// state, and build the two half-stream sketches the merge kernel
	// folds every cycle.
	rp.halfA = sketch.NewFrequentDirections(sketchEll, d, sketch.Options{})
	rp.halfB = sketch.NewFrequentDirections(sketchEll, d, sketch.Options{})
	rp.svdBuf = mat.New(2*sketchEll, d)
	for lo := 0; lo < len(warm); lo += batchFrames {
		hi := min(lo+batchFrames, len(warm))
		vecs := rp.applyVec(warm[lo:hi])
		for i, v := range vecs {
			half := rp.halfA
			if (lo+i)%2 == 1 {
				half = rp.halfB
			}
			half.Append(v)
			if row := lo + i; row < 2*sketchEll {
				copy(rp.svdBuf.Row(row), v)
			}
		}
		rp.feedAll(vecs)
	}
	rp.shadow.Snapshot()
	rp.vt = mat.New(2*sketchEll, d)
	rp.gram = mat.New(2*sketchEll, 2*sketchEll)
	rp.sigma = make([]float64, 2*sketchEll)
	rp.kept, rp.offered = 0, 0
	return rp
}

// applyVec preprocesses a batch the way the engine does: fanned over
// the shared pool, each frame into a pooled vector it then owns.
func (rp *replayer) applyVec(ims []*imgproc.Image) [][]float64 {
	vecs := make([][]float64, len(ims))
	mat.ParallelFor(len(ims), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			vecs[i] = rp.cfg.Pre.ApplyVec(ims[i], mat.GetVec(ims[i].W*ims[i].H))
		}
	})
	return vecs
}

// absorb feeds one batch to the standalone sketches exactly as the
// engine's local shards do: round-robin by stream index, one
// ProcessBatch call per row, shards concurrent when there are several.
func (rp *replayer) absorb(vecs [][]float64) {
	ns := len(rp.shards)
	base := rp.fed
	rp.fed += len(vecs)
	one := func(si int) (kept int) {
		hdr := &rp.rowHdr[si]
		for i, v := range vecs {
			if (base+i)%ns != si {
				continue
			}
			hdr.RowsN, hdr.ColsN, hdr.Stride, hdr.Data = 1, len(v), len(v), v
			kept += rp.shards[si].ProcessBatch(hdr).Kept
		}
		hdr.Data = nil
		return kept
	}
	rp.offered += len(vecs)
	if ns == 1 {
		rp.kept += one(0)
		return
	}
	keptBy := make([]int, ns)
	var wg sync.WaitGroup
	for si := 0; si < ns; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			keptBy[si] = one(si)
		}(si)
	}
	wg.Wait()
	for _, k := range keptBy {
		rp.kept += k
	}
}

func (rp *replayer) absorbRankAdaptive(vecs [][]float64) {
	var hdr mat.Matrix
	for _, v := range vecs {
		hdr.RowsN, hdr.ColsN, hdr.Stride, hdr.Data = 1, len(v), len(v), v
		rp.ra.ProcessBatch(&hdr)
	}
}

// feedAll pushes one preprocessed batch, untimed, through everything
// the replay keeps in step with the stream: both standalone sketches
// and the shadow engine, which takes ownership of the vectors.
func (rp *replayer) feedAll(vecs [][]float64) {
	rp.absorb(vecs)
	rp.absorbRankAdaptive(vecs)
	rp.shadow.Engine().IngestVecs(vecs, nil)
}

// preRoll is the untimed lead-in of each replay: one rotation per shard.
func (rp *replayer) preRoll() int { return sketchEll * rp.w.Shards }

// frames is how many of a cycle's frames one replay consumes.
func (rp *replayer) frames() int { return rp.preRoll() + rp.w.ReplayFrames }

// replay runs one cycle's replay. m is the measured monitor (read only:
// its window and basis feed the stage replay), ims the frames to push
// through the inner layers, st the state the cycle checkpointed.
func (rp *replayer) replay(m *pipeline.Monitor, ims []*imgproc.Image, st *pipeline.MonitorState) {
	rec := rp.rec
	rec.begin("replay")
	defer rec.end()

	// Pre-roll, untimed: one rotation's worth of frames through the same
	// layers, so the timed slice starts with the sketch buffers as warm
	// as they are in the engine, where rotations follow one another.
	pre := rp.preRoll()
	rp.feedAll(rp.applyVec(ims[:pre]))
	ims = ims[pre:]

	// One span per layer over the whole slice, batched as the engine
	// batches, so each replay holds the same number of FD rotations.
	batches := make([][][]float64, 0, (len(ims)+batchFrames-1)/batchFrames)
	rec.begin("imgproc.ApplyVec")
	for lo := 0; lo < len(ims); lo += batchFrames {
		batches = append(batches, rp.applyVec(ims[lo:min(lo+batchFrames, len(ims))]))
	}
	rec.end()
	rec.begin("sketch.ProcessBatch")
	for _, vecs := range batches {
		rp.absorb(vecs)
	}
	rec.end()
	rec.begin("sketch.RankAdaptive")
	for _, vecs := range batches {
		rp.absorbRankAdaptive(vecs)
	}
	rec.end()
	// The shadow engine takes ownership of the vectors.
	rec.begin("engine.IngestVecs")
	for _, vecs := range batches {
		rp.shadow.Engine().IngestVecs(vecs, nil)
	}
	rec.end()
	rec.begin("engine.GlobalSketch")
	rp.shadow.Engine().GlobalSketch()
	rec.end()
	rec.begin("engine.Certificate")
	rp.shadow.Engine().Certificate()
	rec.end()

	// Snapshot stages on the measured monitor's own window and basis. In
	// the cycle a Snapshot follows a QuickSnapshot that has just walked
	// the same window, so the timed call here follows an untimed one too.
	m.Engine().WindowState(rp.cfg.LatentDim)
	rec.begin("pipeline.WindowState")
	x, _, basis, _ := m.Engine().WindowState(rp.cfg.LatentDim)
	rec.end()
	t0 := time.Now()
	rec.begin("pipeline.ProcessMatrixWithBasis")
	stages := pipeline.ProcessMatrixWithBasis(x, basis, rp.cfg).StageTimes
	at := t0
	for _, name := range []string{"pca", "umap", "cluster", "abod", "residuals"} {
		rec.add("stage."+name, at, stages[name])
		at = at.Add(stages[name])
	}
	rec.end()

	// Kernels at the workload's shapes.
	rec.begin("mat.SVDGramTo")
	rp.sigma = mat.SVDGramTo(rp.svdBuf, rp.sigma, rp.vt)
	rec.end()
	rec.begin("mat.GramTo")
	mat.GramTo(rp.gram, rp.svdBuf)
	rec.end()
	if rp.proj == nil || rp.proj.RowsN != x.RowsN || rp.proj.ColsN != basis.RowsN {
		rp.proj = mat.New(x.RowsN, basis.RowsN)
	}
	rec.begin("mat.MulABtTo")
	mat.MulABtTo(rp.proj, x, basis)
	rec.end()
	rec.begin("parallel.MergeSketches")
	_, stats := parallel.MergeSketches([]*sketch.FrequentDirections{rp.halfA, rp.halfB}, parallel.TreeMerge)
	rec.end()
	rp.mergeRot = stats.MergeRotations

	// Codec on the state this cycle checkpointed.
	rec.begin("ckpt.Marshal")
	b, err := ckpt.Marshal(st)
	rec.end()
	if err == nil {
		rp.ckptBytes = len(b)
		rec.begin("ckpt.Unmarshal")
		_, _ = ckpt.Unmarshal(b) // decoding errors surface in the in-cycle restore check
		rec.end()
	}

	if !rp.w.Scrape {
		rec.begin("obs.Scrape")
		rp.scrapeBytes, _ = scrapeMetrics()
		rec.end()
	}
}

// report derives the replay's per-layer metrics and the two ledger
// lines. snapMs is the traced pass's own p25 Snapshot time.
func (rp *replayer) report(res *result, cs cycleStats, snapMs float64) {
	rec := rp.rec
	perFrame := 1e3 / float64(rp.w.ReplayFrames) // ms per replay → µs per frame
	res.setP25("imgproc.applyvec_us_per_frame", rec.durations("imgproc.ApplyVec"), perFrame)
	res.setP25("sketch.process_batch_us_per_frame", rec.durations("sketch.ProcessBatch"), perFrame)
	res.setP25("sketch.rank_adaptive_us_per_frame", rec.durations("sketch.RankAdaptive"), perFrame)
	res.setP25("engine.ingest_vecs_us_per_frame", rec.durations("engine.IngestVecs"), perFrame)
	res.set("sketch.accept_rate", float64(rp.kept)/float64(rp.offered), 0)
	res.setP25("engine.global_sketch_ms", rec.durations("engine.GlobalSketch"), 1)
	res.setP25("engine.certificate_ms", rec.durations("engine.Certificate"), 1)
	res.setP25("pipeline.window_state_ms", rec.durations("pipeline.WindowState"), 1)
	res.setP25("pca.project_ms", rec.durations("stage.pca"), 1)
	res.setP25("umap.fit_ms", rec.durations("stage.umap"), 1)
	res.setP25("optics.cluster_ms", rec.durations("stage.cluster"), 1)
	res.setP25("abod.scores_ms", rec.durations("stage.abod"), 1)
	res.setP25("pipeline.residuals_ms", rec.durations("stage.residuals"), 1)
	res.setP25("mat.svdgram_ms", rec.durations("mat.SVDGramTo"), 1)
	res.setP25("mat.gram_ms", rec.durations("mat.GramTo"), 1)
	res.setP25("mat.mulabt_ms", rec.durations("mat.MulABtTo"), 1)
	res.setP25("parallel.merge_ms", rec.durations("parallel.MergeSketches"), 1)
	res.set("parallel.merge_rotations", float64(rp.mergeRot), 0)
	res.setP25("ckpt.marshal_ms", rec.durations("ckpt.Marshal"), 1)
	res.setP25("ckpt.unmarshal_ms", rec.durations("ckpt.Unmarshal"), 1)
	if rp.w.Scrape {
		res.setP25("obs.scrape_ms", cs.scrape, 1)
		res.set("obs.scrape_bytes", float64(cs.scrapeBytes), 0)
	} else {
		res.setP25("obs.scrape_ms", rec.durations("obs.Scrape"), 1)
		res.set("obs.scrape_bytes", float64(rp.scrapeBytes), 0)
	}

	get := func(name string) float64 { return res.Metrics[name].Value }
	ingest := get("engine.ingest_batch_us_per_frame")
	apply, process := get("imgproc.applyvec_us_per_frame"), get("sketch.process_batch_us_per_frame")
	self := ingest - apply - process
	res.set("engine.self_us_per_frame", self, 0)
	stageSum := get("pipeline.window_state_ms") + get("pca.project_ms") + get("umap.fit_ms") +
		get("optics.cluster_ms") + get("abod.scores_ms")
	snapSelf := snapMs - stageSum
	res.set("pipeline.snapshot_self_ms", snapSelf, 0)

	res.Ledger = append(res.Ledger,
		fmt.Sprintf("ingest_batch %.1f us/frame = applyvec %.1f + process_batch %.1f + engine.self %.1f",
			ingest, apply, process, self),
		fmt.Sprintf("snapshot %.2f ms = window_state %.2f + pca %.2f + umap %.2f + optics %.2f + abod %.2f + snapshot_self %.2f",
			snapMs, get("pipeline.window_state_ms"), get("pca.project_ms"), get("umap.fit_ms"),
			get("optics.cluster_ms"), get("abod.scores_ms"), snapSelf))
	// A self time well below zero means the replay costs more than the
	// call it is meant to explain: the ledger is wrong, not the program.
	// The comparison is between two lower quartiles, so it needs a full
	// set of samples on both sides.
	if len(cs.cycle) >= minSamples {
		res.op(self >= -0.05*ingest, "engine.self %.1f us/frame is below -5%% of ingest_batch %.1f: replay does not represent the in-engine cost", self, ingest)
		res.op(snapSelf >= -0.05*snapMs, "snapshot_self %.2f ms is below -5%% of snapshot %.2f", snapSelf, snapMs)
	}
}

func (rp *replayer) close() {
	_ = rp.shadow.Engine().Close() // local backends cannot fail to close
}
