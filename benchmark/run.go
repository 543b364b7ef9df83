package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"arams/internal/audit"
	"arams/internal/ckpt"
	"arams/internal/imgproc"
	"arams/internal/lcls"
	"arams/internal/mat"
	"arams/internal/obs"
	"arams/internal/pipeline"
	"arams/internal/sketch"
	"arams/internal/umap"
)

// value is one reported number with its unit and the sample count
// behind it (0 for a count or a derived figure).
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// result is one run of one workload.
type result struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Trace     bool             `json:"trace"`
	Procs     int              `json:"gomaxprocs"`
	TmpDir    string           `json:"tmpdir"`
	Cycles    int              `json:"cycles"`
	Frames    int              `json:"frames"`
	WallS     float64          `json:"wall_s"`  // the measured cycles, restores and replays included
	TotalS    float64          `json:"total_s"` // the whole run: generation, set-ups, cycles, checks
	Ops       int              `json:"ops"`
	OpsFailed int              `json:"ops_failed"`
	Failures  []string         `json:"failures,omitempty"`
	Metrics   map[string]value `json:"metrics"`
	// Ledger holds the two per-layer sums of the traced pass.
	Ledger []string `json:"ledger,omitempty"`
	// Samples are the raw per-cycle and per-call timings (ms) behind the
	// end-to-end metrics, kept in the result file so a statistic can be
	// re-examined without re-running.
	Samples map[string][]float64 `json:"samples,omitempty"`
}

func (r *result) set(name string, v float64, n int) {
	r.Metrics[name] = value{Value: v, Unit: unitOf(name), N: n}
}

// setP25 reports the lower quartile of a sample set scaled by k.
func (r *result) setP25(name string, s samples, k float64) {
	r.set(name, p25(s)*k, len(s))
}

// op counts one operation; ok=false records a failed one.
func (r *result) op(ok bool, format string, args ...any) {
	r.Ops++
	if !ok {
		r.OpsFailed++
		if len(r.Failures) < 20 {
			r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
		}
	}
}

func unitOf(name string) string {
	for _, tbl := range [][]metric{endToEnd, perLayer} {
		for _, m := range tbl {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	panic("benchmark: undeclared metric " + name)
}

// dirs are the places a run may write: both inside the checkout.
type dirs struct {
	tmp string // checkpoint and hibernation files
	out string // trace and result files
}

// pipelineConfig is the monitor configuration every workload shares.
// The frame budget is disabled: it reads the clock, journals deadline
// misses and feeds the reconcile controller, so leaving it on would
// make checkpoint bytes and reconcile counts depend on host timing.
func pipelineConfig(w workload) pipeline.Config {
	return pipeline.Config{
		Pre:         imgproc.Preprocessor{Normalize: true},
		Sketch:      sketch.Config{Ell0: sketchEll, Beta: sketchBeta, Seed: 1},
		LatentDim:   latentDim,
		UMAP:        umap.Config{NNeighbors: umapNbrs, NEpochs: umapEpochs, Seed: 2},
		Shards:      w.Shards,
		FrameBudget: -1,
	}
}

// newAuditor builds the private auditor lclsmon attaches to a stream:
// its own journal, default detectors, no sink.
func newAuditor() *audit.Auditor {
	return audit.New(audit.Config{Journal: audit.NewJournal(audit.DefaultJournalCap)})
}

// genPool renders n frames of the given kind. Only the generators see
// the seed; the program sees the frames.
func genPool(kind streamKind, size, n int, seed uint64) []*imgproc.Image {
	out := make([]*imgproc.Image, n)
	if kind == diffraction {
		frames, _ := lcls.NewDiffractionGenerator(lcls.DiffractionConfig{Size: size, Seed: seed}).Generate(n)
		for i, f := range frames {
			out[i] = f.Image
		}
		return out
	}
	for i, f := range lcls.NewBeamGenerator(lcls.BeamConfig{Size: size, Seed: seed}).Generate(n) {
		out[i] = f.Image
	}
	return out
}

// feeder walks a pool in order, wrapping, and counts how often each
// frame was fed so the exact covariance reference can be formed without
// keeping the stream: AᵀA = Σ countᵢ·pᵢpᵢᵀ.
type feeder struct {
	pool   []*imgproc.Image
	pos    int
	fed    int
	counts []int
}

func newFeeder(pool []*imgproc.Image) *feeder {
	return &feeder{pool: pool, counts: make([]int, len(pool))}
}

// next returns the next n frames and their stream indices as tags.
func (f *feeder) next(n int) ([]*imgproc.Image, []int) {
	ims := make([]*imgproc.Image, n)
	tags := make([]int, n)
	for i := range ims {
		ims[i] = f.pool[f.pos]
		tags[i] = f.fed
		f.counts[f.pos]++
		f.pos = (f.pos + 1) % len(f.pool)
		f.fed++
	}
	return ims, tags
}

// reference returns A with row i = √countᵢ · preprocess(poolᵢ), so that
// AᵀA equals the Gram matrix of the whole stream fed.
func (f *feeder) reference(pre imgproc.Preprocessor) *mat.Matrix {
	d := f.pool[0].W * f.pool[0].H
	a := mat.New(len(f.pool), d)
	for i, im := range f.pool {
		v := pre.ApplyVec(im, a.Row(i))
		s := math.Sqrt(float64(f.counts[i]))
		row := a.Row(i)
		for j := range row {
			row[j] = v[j] * s
		}
	}
	return a
}

// ingestBatches feeds frames in batchFrames-sized IngestBatch calls.
func ingestBatches(m *pipeline.Monitor, ims []*imgproc.Image, tags []int, rec *recorder, res *result) {
	for lo := 0; lo < len(ims); lo += batchFrames {
		hi := min(lo+batchFrames, len(ims))
		rec.begin("engine.IngestBatch")
		m.IngestBatch(ims[lo:hi], tags[lo:hi])
		rec.end()
		if res != nil {
			res.Ops++
		}
	}
}

// setupMonitor is the program's set-up: construct, ingest the warm-up
// frames, take the first Snapshot (which fits the cached UMAP model).
func setupMonitor(w workload, pool []*imgproc.Image) (*pipeline.Monitor, *feeder, *audit.Auditor) {
	cfg := pipelineConfig(w)
	var aud *audit.Auditor
	if w.Audit {
		aud = newAuditor()
		cfg.Audit = aud
	}
	m := pipeline.NewMonitor(cfg, w.Window)
	f := newFeeder(pool)
	ims, tags := f.next(w.Warmup)
	ingestBatches(m, ims, tags, nil, nil)
	m.Snapshot()
	return m, f, aud
}

type memReading struct {
	totalAlloc uint64
	numGC      uint32
	pauseNs    uint64
}

func readMem() memReading {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memReading{ms.TotalAlloc, ms.NumGC, ms.PauseTotalNs}
}

// liveHeapMB is HeapAlloc after two collections.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// secondFastest is the set-up statistic: of the seven fresh set-ups the
// fastest may be a lucky outlier and the rest carry interference.
func secondFastest(xs []float64) float64 {
	return quantile(xs, 1/float64(len(xs)-1))
}

// cycleStats accumulates what both kinds of workload measure per cycle.
type cycleStats struct {
	setup, cycle, ingest, quick, snap, ckptT, restore samples
	scrape                                            samples
	alloc                                             uint64
	gcCycles                                          uint32
	gcPauseNs                                         uint64
	cpu                                               time.Duration
	scrapeBytes                                       int
}

// usage is the runtime and rusage reading taken where a cycle's clock
// starts; stopClock adds the deltas up to where it stops.
type usage struct {
	mem memReading
	cpu time.Duration
}

func startClock() usage { return usage{readMem(), cpuTime()} }

func (cs *cycleStats) stopClock(u usage) {
	mem, cpu := readMem(), cpuTime()
	cs.alloc += mem.totalAlloc - u.mem.totalAlloc
	cs.gcCycles += mem.numGC - u.mem.numGC
	cs.gcPauseNs += mem.pauseNs - u.mem.pauseNs
	cs.cpu += cpu - u.cpu
}

// reportEndToEnd sets the end-to-end metrics both kinds of workload
// derive the same way from the per-cycle samples, and files the raw
// samples in the result.
func (cs *cycleStats) reportEndToEnd(res *result, framesPerCycle int) {
	cs.export(res)
	res.set("setup_s", secondFastest(cs.setup)/1e3, len(cs.setup))
	res.set("frames_per_s", float64(framesPerCycle)/(p25(cs.cycle)/1e3), len(cs.cycle))
	res.setP25("snapshot_ms", cs.snap, 1)
	res.setP25("quick_snapshot_ms", cs.quick, 1)
	res.setP25("checkpoint_ms", cs.ckptT, 1)
	res.setP25("restore_ms", cs.restore, 1)
	res.set("alloc_bytes_per_frame", float64(cs.alloc)/float64(res.Frames), 0)
}

// timed runs fn inside a span and returns its wall time.
func timed(rec *recorder, name string, fn func()) time.Duration {
	t0 := time.Now()
	rec.begin(name)
	fn()
	rec.end()
	return time.Since(t0)
}

// timedSnapshot times one Snapshot or QuickSnapshot call and checks
// what it returned.
func timedSnapshot(res *result, rec *recorder, name string, call func() *pipeline.Snapshot, window int) time.Duration {
	var s *pipeline.Snapshot
	d := timed(rec, "pipeline."+name, func() { s = call() })
	res.op(s != nil && len(s.Tags) == window && s.Embedding != nil && s.Embedding.RowsN == window,
		"%s: nil or short snapshot (want %d rows)", name, window)
	return d
}

// quality is the exact accuracy of a final sketch: the covariance error
// relative to ‖A‖_F², and how far above it the certified bound sits.
type quality struct {
	covRel, tightness float64
	cert              audit.Certificate
}

// exactQuality checks a monitor's final sketch against the stream it
// was fed: the certificate must cover every row and bound the exactly
// computed covariance error.
func exactQuality(res *result, who string, m *pipeline.Monitor, f *feeder, pre imgproc.Preprocessor) quality {
	res.op(m.Ingested() == f.fed, "%s: Ingested() = %d, fed %d", who, m.Ingested(), f.fed)
	g := m.Engine().GlobalSketch()
	b := g.Sketch() // compacts: cut the certificate after extracting B
	cert := audit.FromSketch(g)
	a := f.reference(pre)
	exact := sketch.CovErr(a, b)
	res.op(cert.CovBound()+1e-8*(1+cert.FrobMass) >= exact,
		"%s: certificate CovBound %g < exact covariance error %g", who, cert.CovBound(), exact)
	res.op(cert.Rows == f.fed, "%s: certificate covers %d rows, fed %d", who, cert.Rows, f.fed)
	// The Frequent Directions guarantee, whatever the frames were.
	res.op(exact <= sketch.FDBound(a, cert.Ell), "%s: covariance error %g exceeds |A|_F^2/l = %g", who, exact, sketch.FDBound(a, cert.Ell))
	return quality{covRel: exact / a.FrobeniusNormSq(), tightness: cert.CovBound() / exact, cert: cert}
}

// export files the raw samples in the result.
func (cs *cycleStats) export(res *result) {
	res.Samples = map[string][]float64{
		"setup_ms": cs.setup, "cycle_ms": cs.cycle, "ingest_ms": cs.ingest, "quick_snapshot_ms": cs.quick,
		"snapshot_ms": cs.snap, "checkpoint_ms": cs.ckptT, "restore_ms": cs.restore,
	}
}

// scrapeMetrics performs one GET /metrics through the obs handler, the
// way a Prometheus server would, without a socket.
func scrapeMetrics() (int, bool) {
	rr := httptest.NewRecorder()
	obs.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	return rr.Body.Len(), rr.Code == 200 && rr.Body.Len() > 0
}

// checkpoint is State + ckpt.Save, the call pair lclsmon makes.
func checkpoint(m *pipeline.Monitor, path string, rec *recorder) (*pipeline.MonitorState, time.Duration, error) {
	t0 := time.Now()
	rec.begin("checkpoint")
	rec.begin("pipeline.State")
	st := m.State()
	rec.end()
	rec.begin("ckpt.Save")
	err := ckpt.Save(path, st)
	rec.end()
	rec.end()
	return st, time.Since(t0), err
}

// restore is ckpt.Load + NewMonitorFromState. The caller verifies the
// rebuilt monitor and closes its engine.
func restore(cfg pipeline.Config, withAudit bool, path string, rec *recorder) (*pipeline.Monitor, *pipeline.MonitorState, time.Duration, error) {
	t0 := time.Now()
	rec.begin("restore")
	defer rec.end()
	rec.begin("ckpt.Load")
	loaded, err := ckpt.Load(path)
	rec.end()
	if err != nil {
		return nil, nil, time.Since(t0), err
	}
	ms, ok := loaded.(*pipeline.MonitorState)
	if !ok {
		return nil, nil, time.Since(t0), fmt.Errorf("checkpoint holds %T, not a monitor state", loaded)
	}
	if withAudit {
		cfg.Audit = newAuditor()
	}
	rec.begin("pipeline.NewMonitorFromState")
	m, err := pipeline.NewMonitorFromState(cfg, ms)
	rec.end()
	return m, ms, time.Since(t0), err
}

// checkRestored verifies a rebuilt monitor against the checkpoint it
// came from and stops its engine. full adds the byte-level checks.
func checkRestored(res *result, rm *pipeline.Monitor, loaded *pipeline.MonitorState, err error, fed int, path string, full bool) {
	res.op(err == nil && rm != nil && rm.Ingested() == fed, "restore: %v", err)
	if rm == nil {
		return
	}
	if full {
		// Canonical encoding: the decoded state re-marshals to the bytes
		// it was loaded from, and the rebuilt monitor holds that stream.
		want, rerr := os.ReadFile(path)
		got, merr := ckpt.Marshal(loaded)
		res.op(rerr == nil && merr == nil && bytes.Equal(got, want), "checkpoint does not re-marshal byte-identical (%v %v)", rerr, merr)
		res.op(sameStream(rm.State(), loaded), "restored monitor differs from its checkpoint")
	}
	res.op(rm.Engine().Close() == nil, "closing restored engine")
}

// runMonitor runs one of the single-stream workloads.
func runMonitor(w workload, seed uint64, cycles int, trace bool, d dirs, res *result) error {
	genStart := time.Now()
	pool := genPool(w.Kind, w.Size, w.Pool, seed)
	genT := time.Since(genStart)
	heapBase := liveHeapMB()

	// Set-up on fresh instances; the last one before the cycles is measured.
	var setups samples
	var m *pipeline.Monitor
	var feed *feeder
	var aud *audit.Auditor
	for i := 0; i < setupBefore; i++ {
		if m != nil {
			if err := m.Engine().Close(); err != nil {
				return fmt.Errorf("closing set-up instance: %w", err)
			}
		}
		t0 := time.Now()
		m, feed, aud = setupMonitor(w, pool)
		setups.add(time.Since(t0))
	}

	cfg := pipelineConfig(w)
	path := filepath.Join(d.tmp, "bench.ckpt")
	var rec *recorder
	var rp *replayer
	if trace {
		rec = newRecorder(cycles * (w.S/batchFrames + 64))
		warm, _ := newFeeder(pool).next(w.Warmup)
		rp = newReplayer(w, warm, rec)
	}

	// extraSetup is one of the later set-ups: a fresh instance, discarded.
	extraSetup := func() error {
		t0 := time.Now()
		extra, _, _ := setupMonitor(w, pool)
		setups.add(time.Since(t0))
		if err := extra.Engine().Close(); err != nil {
			return fmt.Errorf("closing set-up instance: %w", err)
		}
		return nil
	}

	startCert := m.State().Certificate()
	startReconciles := m.Engine().Reconciles()
	var cs cycleStats
	wallStart := time.Now()
	for c := 0; c < cycles; c++ {
		ims, tags := feed.next(w.S)
		rec.setCycle(c)
		clock := startClock()

		rec.begin("cycle")
		t0 := time.Now()
		cs.ingest.add(timed(rec, "ingest", func() { ingestBatches(m, ims, tags, rec, res) }))
		for q := 0; q < w.Q; q++ {
			cs.quick.add(timedSnapshot(res, rec, "QuickSnapshot", m.QuickSnapshot, w.Window))
		}
		for f := 0; f < w.F; f++ {
			cs.snap.add(timedSnapshot(res, rec, "Snapshot", m.Snapshot, w.Window))
		}
		if w.Scrape {
			var ok bool
			cs.scrape.add(timed(rec, "obs.Scrape", func() { cs.scrapeBytes, ok = scrapeMetrics() }))
			res.op(ok, "GET /metrics failed")
		}
		st, ckptT, err := checkpoint(m, path, rec)
		cs.ckptT.add(ckptT)
		cs.cycle.add(time.Since(t0))
		rec.end() // cycle
		res.op(err == nil, "ckpt.Save: %v", err)
		cs.stopClock(clock)

		// Restores, outside the cycle clock: load, rebuild, verify, stop.
		for i := 0; i < restoresPerCycle; i++ {
			rm, loaded, restoreT, rerr := restore(cfg, w.Audit, path, rec)
			cs.restore.add(restoreT)
			checkRestored(res, rm, loaded, rerr, feed.fed, path, c == cycles-1 && i == 0)
		}

		if rp != nil {
			rp.replay(m, ims[:rp.frames()], st)
		}

		if setupDue(len(setups), c, cycles) {
			if err := extraSetup(); err != nil {
				return err
			}
		}
	}
	for len(setups) < setupRuns {
		if err := extraSetup(); err != nil {
			return err
		}
	}
	res.WallS = time.Since(wallStart).Seconds()
	rec.setCycle(-1)
	res.Cycles = cycles
	res.Frames = cycles * w.S

	heapEnd := liveHeapMB()

	cs.setup = setups

	cs.reportEndToEnd(res, w.S)
	res.set("heap_live_mb", heapEnd-heapBase, 0)

	// Output checks and exact quality, untimed.
	q := exactQuality(res, w.Name, m, feed, cfg.Pre)
	res.set("cov_err_rel", q.covRel, 0)

	if trace {
		endCert := m.State().Certificate()
		res.set("lcls.gen_us_per_frame", float64(genT.Microseconds())/float64(w.Pool), 0)
		res.set("sketch.rotations", float64(endCert.Rotations-startCert.Rotations), 0)
		res.set("sketch.ell_final", float64(q.cert.Ell), 0)
		res.set("engine.reconciles", float64(m.Engine().Reconciles()-startReconciles), 0)
		res.set("engine.shard_busy_skew", busySkew(m.Engine().ShardBusy()), 0)
		res.set("audit.cert_tightness", q.tightness, 0)
		events := 0.0
		if aud != nil {
			events = float64(aud.Journal().Seq())
		}
		res.set("audit.journal_events", events, 0)
		for _, name := range []string{"tenant.pump_us_per_frame", "tenant.hibernate_ms", "tenant.restore_ms",
			"tenant.hibernations", "tenant.restores", "tenant.ckpt_bytes"} {
			res.set(name, 0, 0)
		}
		if err := reportTraced(res, w, rec, rp, cs, d.out); err != nil {
			return err
		}
	}
	return m.Engine().Close()
}

// reportTraced sets the traced-pass metrics both kinds of workload
// derive the same way — from the recorder's spans, the replay, and the
// runtime counters accumulated over the measured cycles — then stops
// the replayer and writes the spans out.
func reportTraced(res *result, w workload, rec *recorder, rp *replayer, cs cycleStats, outDir string) error {
	batches := rec.durations("engine.IngestBatch")
	res.set("engine.batch_p50_ms", median(batches), len(batches))
	res.set("engine.batch_p99_ms", quantile(batches, 0.99), len(batches))
	res.setP25("engine.ingest_batch_us_per_frame", rec.durations("ingest"), 1e3/float64(w.S))
	res.setP25("pipeline.state_ms", rec.durations("pipeline.State"), 1)
	res.setP25("pipeline.from_state_ms", rec.durations("pipeline.NewMonitorFromState"), 1)
	res.setP25("ckpt.save_ms", rec.durations("ckpt.Save"), 1)
	res.setP25("ckpt.load_ms", rec.durations("ckpt.Load"), 1)
	res.set("ckpt.bytes", float64(rp.ckptBytes), 0)
	rp.report(res, cs, p25(cs.snap))

	frames := float64(res.Frames)
	res.set("runtime.cpu_us_per_frame", float64(cs.cpu.Microseconds())/frames, 0)
	res.set("runtime.gc_cycles", float64(cs.gcCycles), 0)
	res.set("runtime.gc_pause_ms", float64(cs.gcPauseNs)/1e6, 0)
	res.set("runtime.peak_rss_mb", peakRSSMB(), 0)
	res.Ledger = append(res.Ledger, fmt.Sprintf(
		"cycle %.2f ms (p25, n=%d) of which the benchmark's own code between layer calls: %.3f ms",
		p25(cs.cycle), len(cs.cycle), p25(rec.selfDurations("cycle"))))
	rp.close()
	if err := rec.writeJSONL(filepath.Join(outDir, w.Name+".trace.jsonl")); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}

// busySkew is max÷mean of the shards' cumulative absorb time.
func busySkew(busy []time.Duration) float64 {
	var total, peak time.Duration
	for _, b := range busy {
		total += b
		peak = max(peak, b)
	}
	if total == 0 {
		return 1
	}
	return float64(peak) * float64(len(busy)) / float64(total)
}
