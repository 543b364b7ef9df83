// Command lclsmon runs the full monitoring pipeline on a stored run
// file — the counterpart of the paper artifact's run.py driver: it
// streams the run's frames in batches through pipeline.Monitor (the
// sharded streaming engine: -shards splits the sketch across concurrent
// shard sketchers, and each batch is sketched in the calling goroutine),
// then takes one snapshot over the last -window frames — projection,
// UMAP, OPTICS, ABOD and reconstruction residuals — and writes an
// interactive HTML embedding with hover tooltips (the Bokeh-HTML analog
// of Figs. 5 and 6) and, with -reach, the OPTICS reachability plot.
//
// With -listen the process also serves the live observability
// endpoints of internal/obs — /metrics (Prometheus text),
// /metrics.json, /healthz, /statusz (live dashboard), /tracez
// (per-batch trace trees), and /debug/pprof/ — and stays up after the
// run completes so the per-stage histograms and sketch gauges can be
// scraped. -flight-dir arms the fault-triggered flight recorder and
// -frame-budget enables deadline/SLO tracking against the LCLS 120 Hz
// cadence.
//
// With -checkpoint-dir the full monitor state (per-shard sketches, RNG
// positions, sliding window) is checkpointed atomically every
// -checkpoint-every frames, and -restore resumes a killed run from the
// last checkpoint, bit-exact per shard, before ingesting the remaining
// frames. -fabric sketches each shard on a remote fabricworker.
//
// With -tenants the process becomes a multi-tenant sketch service: each
// listed tenant streams its own run (id=runfile, or a bare id reusing
// -in) through one shared registry — per-tenant engines over the shared
// worker pool, per-tenant admission queues, and LRU/idle hibernation
// into -checkpoint-dir (-tenant-idle, -tenant-max-resident); -window
// sizes every tenant's window (0 = the longest run). /tenantz serves
// the live tenant table and per-tenant hot-path metrics carry a
// tenant="<id>" label.
//
// Usage:
//
//	lclssim -kind diffraction -out run.lcls
//	lclsmon -in run.lcls -html embedding.html -reach reach.html -listen :9090
//	lclsmon -in run.lcls -shards 4 -window 512
//	lclsmon -in run.lcls -checkpoint-dir ckpt -checkpoint-every 256
//	lclsmon -in run.lcls -checkpoint-dir ckpt -restore
//	lclsmon -in run.lcls -fabric host1:7070,host2:7070
//	lclssim -mix amo=beam,cxi=diffraction -out-dir runs
//	lclsmon -tenants amo=runs/amo.lcls,cxi=runs/cxi.lcls -checkpoint-dir tenants -tenant-max-resident 1
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"arams/internal/audit"
	"arams/internal/ckpt"
	"arams/internal/engine"
	"arams/internal/fabric"
	"arams/internal/imgproc"
	"arams/internal/lcls"
	"arams/internal/mat"
	"arams/internal/obs"
	"arams/internal/optics"
	"arams/internal/pipeline"
	"arams/internal/sketch"
	"arams/internal/tenant"
	"arams/internal/umap"
	"arams/internal/viz"
)

func main() {
	in := flag.String("in", "run.lcls", "input run file")
	html := flag.String("html", "embedding.html", "output HTML path")
	ell := flag.Int("ell", 25, "initial sketch size ℓ")
	eps := flag.Float64("eps", 0, "rank-adaptive error target (0 = fixed rank)")
	beta := flag.Float64("beta", 0.9, "priority-sampling keep fraction")
	latent := flag.Int("latent", 12, "PCA latent dimension")
	useHDBSCAN := flag.Bool("hdbscan", false, "cluster with HDBSCAN* instead of OPTICS")
	reach := flag.String("reach", "", "also write the OPTICS reachability plot to this HTML path")
	seed := flag.Uint64("seed", 1, "RNG seed")
	listen := flag.String("listen", "", "serve /metrics, /statusz, /debug/pprof on this address (e.g. :9090)")
	ckptDir := flag.String("checkpoint-dir", "", "checkpoint monitor state into this directory (empty = no checkpoints)")
	ckptEvery := flag.Int("checkpoint-every", 256, "checkpoint every N ingested frames")
	restore := flag.Bool("restore", false, "resume from the checkpoint in -checkpoint-dir before ingesting")
	window := flag.Int("window", 0, "snapshot window size (0 = whole run; with -tenants, each tenant's window, 0 = the longest run)")
	shards := flag.Int("shards", 1, "concurrent sketch shards")
	fabricWorkers := flag.String("fabric", "", "comma-separated fabricworker addresses; one remote shard per worker (overrides -shards)")
	tenants := flag.String("tenants", "", "multi-tenant mode: comma-separated id=runfile pairs (bare ids reuse -in); streams are interleaved through one tenant registry with hibernation in -checkpoint-dir")
	tenantIdle := flag.Duration("tenant-idle", 0, "multi-tenant mode: hibernate tenants idle for this long (0 = only residency pressure evicts)")
	tenantMaxResident := flag.Int("tenant-max-resident", 0, "multi-tenant mode: cap on simultaneously resident tenant engines (0 = unlimited)")
	auditLog := flag.String("audit-log", "", "append audit journal events to this JSONL file")
	alarmThreshold := flag.Float64("alarm-threshold", 0.5, "Page-Hinkley λ for the residual drift detector")
	auditEvery := flag.Int("audit-every", 32, "audit the sketch every N frames")
	flightDir := flag.String("flight-dir", "", "arm the flight recorder: dump recent spans and metric deltas to JSONL files in this directory on faults, drift alarms, and deadline burns")
	frameBudget := flag.Duration("frame-budget", 0, "per-frame latency budget for deadline tracking (0 = 1/120 s; negative disables)")
	verbosity := flag.Int("v", 0, "log verbosity: 0=info, 1=debug")
	flag.Parse()

	setupLogging(*verbosity)
	slog.Info("starting", "go", runtime.Version(), "gomaxprocs", runtime.GOMAXPROCS(0), "mat_kernels", mat.KernelSet())
	if *flightDir != "" {
		// In fabric mode the recorder carries a stable identity so its
		// dumps cannot collide with worker dumps in a shared directory.
		ident := ""
		if *fabricWorkers != "" {
			ident = "coordinator"
		}
		if _, err := obs.Default().ArmFlightRecorder(obs.FlightConfig{Dir: *flightDir, Identity: ident}); err != nil {
			fatal("arming flight recorder", err)
		}
		slog.Info("flight recorder armed", "dir", *flightDir)
	}
	auditor := setupAudit(*auditLog, *alarmThreshold)
	// /fleetz always serves: single-process runs show just the
	// coordinator's own registry; fabric mode adds one member per worker.
	fleet := obs.NewFleetView(0)
	fleet.IncludeLocal("coordinator", obs.Default())
	obs.Handle("/fleetz", fleet)
	hold := serveObs(*listen)

	if *restore && *ckptDir == "" {
		fatal("flag error", errors.New("-restore requires -checkpoint-dir"))
	}

	scfg := sketch.Config{Ell0: *ell, Beta: *beta, Seed: *seed}
	if *eps > 0 {
		scfg.RankAdaptive = true
		scfg.Eps = *eps
		scfg.Nu = 10
	}
	cfg := pipeline.Config{
		Pre:         imgproc.Preprocessor{Normalize: true},
		Sketch:      scfg,
		LatentDim:   *latent,
		UMAP:        umap.Config{NNeighbors: 20, NEpochs: 200, Seed: *seed + 1},
		UseHDBSCAN:  *useHDBSCAN,
		Audit:       auditor,
		AuditEvery:  *auditEvery,
		Shards:      *shards,
		FrameBudget: *frameBudget,
	}

	if *tenants != "" {
		if *ckptDir == "" {
			fatal("flag error", errors.New("-tenants requires -checkpoint-dir (the hibernation directory)"))
		}
		if *fabricWorkers != "" {
			fatal("flag error", errors.New("-tenants and -fabric are mutually exclusive"))
		}
		runTenants(*tenants, *in, cfg, tenantOpts{
			dir:         *ckptDir,
			idle:        *tenantIdle,
			maxResident: *tenantMaxResident,
			window:      *window,
			lambda:      *alarmThreshold,
		})
		hold()
		return
	}

	f, err := os.Open(*in)
	if err != nil {
		fatal("opening run file", err)
	}
	run, err := lcls.ReadRun(f)
	f.Close()
	if err != nil {
		fatal(fmt.Sprintf("reading %s", *in), err)
	}
	slog.Info("run loaded",
		"experiment", run.Experiment, "run", run.RunNumber,
		"detector", run.Detector, "frames", run.Len(),
		"width", run.Width, "height", run.Height)

	if *fabricWorkers != "" {
		addrs := strings.Split(*fabricWorkers, ",")
		for i := range addrs {
			addrs[i] = strings.TrimSpace(addrs[i])
		}
		remotes := fabric.DialFleet(addrs, scfg, fabric.RemoteConfig{})
		backends := make([]engine.Backend, len(remotes))
		for i, r := range remotes {
			if r.Degraded() {
				slog.Warn("fabric worker unreachable; shard degraded to in-process sketching",
					"worker", r.Name(), "addr", addrs[i])
			}
			// Heartbeats now feed this worker's registry snapshot into
			// /fleetz, and coordinator flight dumps fan out to it.
			r.ArmFleet(fleet)
			backends[i] = r
		}
		fabric.ArmFleetFlight(remotes)
		cfg.Backends = backends
		cfg.Shards = len(addrs)
		slog.Info("fabric mode: sketching distributed across workers",
			"workers", len(addrs))
	}

	runStreaming(run, cfg, streamOpts{
		dir:     *ckptDir,
		every:   *ckptEvery,
		restore: *restore,
		window:  *window,
		html:    *html,
		reach:   *reach,
	})
	hold()
}

// streamOpts bundles the single-stream flags.
type streamOpts struct {
	dir     string
	every   int
	restore bool
	window  int
	html    string
	reach   string
}

// runStreaming is the single-stream path: frames stream in batches
// through a pipeline.Monitor; with opts.dir set the monitor state is
// checkpointed atomically every opts.every frames, and with
// opts.restore the stream resumes at the frame index recorded in the
// last checkpoint. The final snapshot over the sliding window is
// written as the embedding HTML, and as the reachability plot when
// opts.reach is set.
func runStreaming(run *lcls.Run, cfg pipeline.Config, opts streamOpts) {
	window := opts.window
	if window <= 0 || window > run.Len() {
		window = run.Len()
	}
	path := ""
	if opts.dir == "" {
		opts.every = 0
	} else {
		if err := os.MkdirAll(opts.dir, 0o755); err != nil {
			fatal("creating checkpoint directory", err)
		}
		path = filepath.Join(opts.dir, "lclsmon.ckpt")
	}

	var m *pipeline.Monitor
	start := 0
	if opts.restore {
		state, err := ckpt.Load(path)
		switch {
		case err == nil:
			ms, ok := state.(*pipeline.MonitorState)
			if !ok {
				fatal("restoring checkpoint", fmt.Errorf("%s holds %T, not a monitor state", path, state))
			}
			m, err = pipeline.NewMonitorFromState(cfg, ms)
			if err != nil {
				fatal("restoring checkpoint", err)
			}
			start = ms.Ingests
			if start > run.Len() {
				fatal("restoring checkpoint", fmt.Errorf(
					"checkpoint records %d ingests but the run has only %d frames", start, run.Len()))
			}
			slog.Info("restored from checkpoint",
				"path", path, "resume_frame", start, "window_frames", len(ms.Frames))
		case errors.Is(err, os.ErrNotExist):
			slog.Info("no checkpoint to restore; starting fresh", "path", path)
		default:
			fatal("restoring checkpoint", err)
		}
	}
	if m == nil {
		// A stored run's length is known, so a rank-adaptive (-eps)
		// sketch keeps Algorithm 2's end-of-stream guard. A restored
		// monitor carries the guard in its checkpoint.
		m = pipeline.NewRunMonitor(cfg, window, run.Len())
	}

	// Frames are batch-ingested up to the next checkpoint or audit
	// boundary, whichever comes first: the monitor preprocesses each
	// batch with the worker pool and fans it out to the shard
	// sketchers. The engine flushes the auditor at most once per
	// dispatch, so batches must not span audit periods — a stream
	// chunked only by the (much larger) checkpoint interval would
	// starve the drift detectors of samples. Checkpoints still land
	// exactly on their boundary frames, so resume indices match the
	// per-frame behavior.
	auditStep := 0
	if cfg.Audit != nil {
		auditStep = cfg.AuditEvery
	}
	for i := start; i < run.Len(); {
		hi := run.Len()
		for _, step := range []int{opts.every, auditStep} {
			if step > 0 {
				if next := i + step - i%step; next < hi {
					hi = next
				}
			}
		}
		tags := make([]int, hi-i)
		for j := range tags {
			tags[j] = i + j
		}
		m.IngestBatch(run.Frames[i:hi], tags)
		i = hi
		if opts.every > 0 && i%opts.every == 0 {
			if err := ckpt.Save(path, m.State()); err != nil {
				slog.Error("checkpoint failed", "frame", i, "err", err)
			} else {
				slog.Debug("checkpoint written", "frame", i, "path", path)
				journalSave(cfg, i)
			}
		}
	}
	if path != "" {
		// Final checkpoint so a restart after a completed stream is a no-op.
		if err := ckpt.Save(path, m.State()); err != nil {
			slog.Error("final checkpoint failed", "err", err)
		} else {
			journalSave(cfg, m.Ingested())
		}
	}
	slog.Info("stream complete",
		"frames", m.Ingested(), "resumed_at", start, "directions", m.Ell(), "checkpoint", path)
	cert := m.Engine().Certificate()
	slog.Info("sketch certificate",
		"rows", cert.Rows, "ell", cert.Ell, "rotations", cert.Rotations,
		"cov_bound", fmt.Sprintf("%.6g", cert.CovBound()),
		"rel_bound", fmt.Sprintf("%.6g", cert.RelBound()),
		"apriori_bound", fmt.Sprintf("%.6g", cert.AprioriBound()))

	snap := m.Snapshot()
	if snap == nil {
		slog.Info("nothing ingested; no embedding written")
		return
	}
	for stage, d := range snap.StageTimes {
		slog.Debug("stage timing", "stage", stage, "duration", d.Round(1e6))
	}
	slog.Info("clustering",
		"clusters", optics.NumClusters(snap.Labels),
		"noise_points", countNoise(snap.Labels))
	if hasLabels(run.Labels) {
		stored := make([]int, len(snap.Tags))
		for i, tag := range snap.Tags {
			stored[i] = run.Labels[tag]
		}
		slog.Info("label agreement (window)", "ari",
			fmt.Sprintf("%.3f", optics.ARI(snap.Labels, stored)))
	}
	top := make([]int, len(snap.ResidualOutliers))
	for i, row := range snap.ResidualOutliers {
		top[i] = snap.Tags[row]
	}
	slog.Info("residual outliers", "top", fmt.Sprint(top))

	tips := make([]string, len(snap.Tags))
	for i, tag := range snap.Tags {
		tips[i] = fmt.Sprintf("frame %d\nstored label %d\nresidual %.3f",
			tag, run.Labels[tag], snap.Residuals[i])
	}
	plot := viz.FromEmbedding(
		fmt.Sprintf("%s run %d — latent embedding", run.Experiment, run.RunNumber),
		snap.Embedding, snap.Labels, tips)
	plot.Subtitle = fmt.Sprintf("%d frames in window of %d ingested, detector %s",
		len(snap.Tags), m.Ingested(), run.Detector)
	if err := writeHTML(opts.html, plot.WriteHTML); err != nil {
		fatal("writing embedding HTML", err)
	}
	slog.Info("embedding written", "path", opts.html)

	if opts.reach != "" {
		opt := optics.Run(snap.Embedding, 5, math.Inf(1))
		ordLabels := make([]int, len(opt.Order))
		for pos, p := range opt.Order {
			ordLabels[pos] = snap.Labels[p]
		}
		rp := &viz.ReachabilityPlot{
			Title:  fmt.Sprintf("%s run %d — OPTICS reachability", run.Experiment, run.RunNumber),
			Values: opt.ReachabilityInOrder(),
			Labels: ordLabels,
		}
		if err := writeHTML(opts.reach, rp.WriteHTML); err != nil {
			fatal("writing reachability HTML", err)
		}
		slog.Info("reachability plot written", "path", opts.reach)
	}
}

// tenantOpts bundles the multi-tenant flags.
type tenantOpts struct {
	dir         string
	idle        time.Duration
	maxResident int
	window      int
	lambda      float64
}

// tenantStream is one tenant's workload: an ID and the run it streams.
type tenantStream struct {
	id  string
	run *lcls.Run
}

// parseTenantSpec expands "-tenants id=runfile,id2=runfile2,id3" into
// per-tenant streams (a bare id reuses defaultIn). Run files are loaded
// once and shared between tenants that name the same path.
func parseTenantSpec(spec, defaultIn string) []tenantStream {
	cache := map[string]*lcls.Run{}
	load := func(path string) *lcls.Run {
		if r, ok := cache[path]; ok {
			return r
		}
		f, err := os.Open(path)
		if err != nil {
			fatal("opening tenant run file", err)
		}
		r, err := lcls.ReadRun(f)
		f.Close()
		if err != nil {
			fatal(fmt.Sprintf("reading %s", path), err)
		}
		cache[path] = r
		return r
	}
	var streams []tenantStream
	seen := map[string]bool{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, path, ok := strings.Cut(part, "=")
		if !ok {
			path = defaultIn
		}
		if err := tenant.ValidateID(id); err != nil {
			fatal("flag error", err)
		}
		if seen[id] {
			fatal("flag error", fmt.Errorf("tenant %q listed twice in -tenants", id))
		}
		seen[id] = true
		streams = append(streams, tenantStream{id: id, run: load(path)})
	}
	if len(streams) == 0 {
		fatal("flag error", errors.New("-tenants named no tenants"))
	}
	return streams
}

// runTenants is the sketch-as-a-service path: every tenant's run
// streams through one registry — shared worker pool, per-tenant
// engines, per-tenant admission queues — with frames interleaved
// round-robin across tenants the way a shared facility mixes
// beamlines, one audit period per tenant per round. Idle or surplus
// tenants hibernate into opts.dir and the registry restores them
// transparently; /tenantz serves the live tenant table.
func runTenants(spec, defaultIn string, cfg pipeline.Config, opts tenantOpts) {
	streams := parseTenantSpec(spec, defaultIn)

	// Each tenant gets a private auditor (own journal, own drift
	// detector) so audit state rides that tenant's checkpoints and a
	// drift alarm names its tenant. The registry's own admission and
	// eviction events land in the process journal behind /audit.
	cfg.Audit = nil
	lambda := opts.lambda
	// -window sizes every tenant's window; 0 means the longest run, so
	// every tenant's window holds its whole stream.
	longest := 0
	for _, ts := range streams {
		longest = max(longest, ts.run.Len())
	}
	window := opts.window
	if window <= 0 {
		window = longest
	}
	reg, err := tenant.Open(tenant.Config{
		Dir:          opts.dir,
		Pipeline:     cfg,
		Window:       window,
		MaxResident:  opts.maxResident,
		IdleAfter:    opts.idle,
		JanitorEvery: opts.idle / 2,
		NewAuditor: func(id string) *audit.Auditor {
			return audit.New(audit.Config{
				Journal:  audit.NewJournal(audit.DefaultJournalCap),
				Residual: audit.NewPageHinkley(lambda/10, lambda),
				OnAlarm: func(a audit.Alarm) {
					slog.Warn("sketch drift alarm", "tenant", id,
						"signal", a.Signal, "value", fmt.Sprintf("%.6g", a.Value),
						"batch", a.Batch, "journal_seq", a.Seq)
				},
			})
		},
	})
	if err != nil {
		fatal("opening tenant registry", err)
	}
	obs.Handle("/tenantz", reg.Handler())
	slog.Info("multi-tenant mode", "tenants", len(streams),
		"hibernation_dir", opts.dir, "max_resident", opts.maxResident,
		"idle_after", opts.idle)

	// Interleave the workloads frame by frame — the adversarial mix for
	// per-tenant admission — in rounds of one audit period per tenant,
	// and drain every tenant before the next round. A tenant's auditor
	// is flushed at most once per dispatch, so no drain batch may span
	// an audit period (runStreaming chunks its batches for the same
	// reason). And a tenant is only evicted once it has drained, so the
	// idle tenants between rounds are what a capped registry rotates
	// through hibernation; the next round restores them mid-stream.
	round := cfg.AuditEvery
	if round <= 0 {
		round = longest
	}
	total := 0
	for lo := 0; lo < longest; lo += round {
		for f := lo; f < min(lo+round, longest); f++ {
			for _, ts := range streams {
				if f >= ts.run.Len() {
					continue
				}
				if err := reg.Append(ts.id, ts.run.Frames[f], f); err != nil {
					fatal(fmt.Sprintf("appending frame %d for tenant %s", f, ts.id), err)
				}
				total++
			}
		}
		if err := reg.DrainAll(); err != nil {
			fatal("draining tenants", err)
		}
	}
	slog.Info("streams complete", "tenants", len(streams), "frames", total)

	for _, ts := range streams {
		cert, err := reg.Certificate(ts.id)
		if err != nil {
			fatal(fmt.Sprintf("certificate for tenant %s", ts.id), err)
		}
		slog.Info("tenant certificate", "tenant", ts.id,
			"rows", cert.Rows, "ell", cert.Ell,
			"cov_bound", fmt.Sprintf("%.6g", cert.CovBound()),
			"rel_bound", fmt.Sprintf("%.6g", cert.RelBound()))
	}
	// Close hibernates every tenant, so the registry's whole state
	// survives in opts.dir: `ckptinfo -dir` summarizes it, and the next
	// lclsmon -tenants run resumes each stream bit-exactly.
	if err := reg.Close(); err != nil {
		fatal("closing tenant registry", err)
	}
	slog.Info("tenants hibernated", "dir", opts.dir)
}

// setupAudit builds the run's sketch-quality auditor: a Page-Hinkley
// residual detector with the -alarm-threshold λ, alarms logged via
// slog, an optional JSONL journal sink, and the /audit endpoint
// mounted on the observability mux. Audit events also land in the
// journal the endpoint serves.
func setupAudit(logPath string, lambda float64) *audit.Auditor {
	journal := audit.Default()
	if logPath != "" {
		f, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal("opening audit log", err)
		}
		// The sink stays attached for the process lifetime; the OS
		// closes it on exit, and JSONL appends are line-atomic.
		journal.SetSink(f)
		slog.Info("audit journal sink attached", "path", logPath)
	}
	// The drift allowance scales with the alarm threshold so one knob
	// tunes the detector: a sustained shift a tenth of λ per batch is
	// treated as drift, anything smaller as noise.
	auditor := audit.New(audit.Config{
		Residual: audit.NewPageHinkley(lambda/10, lambda),
		Journal:  journal,
		OnAlarm: func(a audit.Alarm) {
			slog.Warn("sketch drift alarm",
				"signal", a.Signal, "value", fmt.Sprintf("%.6g", a.Value),
				"batch", a.Batch, "journal_seq", a.Seq)
		},
	})
	obs.Handle("/audit", audit.Handler(auditor, journal))
	return auditor
}

// journalSave records a checkpoint-save event in the audit journal.
// The event lands after the saved snapshot was cut, so a checkpoint
// never contains its own save event.
func journalSave(cfg pipeline.Config, frame int) {
	if cfg.Audit == nil {
		return
	}
	cfg.Audit.Journal().Record(audit.KindCheckpointSave,
		"monitor state checkpointed", audit.A("frame", float64(frame)))
}

// setupLogging installs a slog text handler on stderr at the level the
// -v flag selects.
func setupLogging(verbosity int) {
	level := slog.LevelInfo
	if verbosity >= 1 {
		level = slog.LevelDebug
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level})))
}

// serveObs starts the observability server when addr is non-empty and
// returns a function that blocks until SIGINT/SIGTERM so the endpoints
// outlive the run; with no address it returns a no-op.
func serveObs(addr string) (hold func()) {
	if addr == "" {
		return func() {}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal("starting observability server", err)
	}
	slog.Info("observability server listening",
		"addr", ln.Addr().String(),
		"endpoints", "/metrics /metrics.json /healthz /statusz /tracez /audit /debug/pprof/")
	go func() {
		if err := (&http.Server{Handler: obs.Handler()}).Serve(ln); err != nil {
			slog.Error("observability server stopped", "err", err)
		}
	}()
	return func() {
		slog.Info("run complete; still serving observability endpoints — Ctrl-C to exit")
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		<-ch
	}
}

func writeHTML(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(msg string, err error) {
	slog.Error(msg, "err", err)
	os.Exit(1)
}

func countNoise(labels []int) int {
	n := 0
	for _, l := range labels {
		if l == optics.Noise {
			n++
		}
	}
	return n
}

// hasLabels reports whether the stored labels carry any information
// (more than one distinct value).
func hasLabels(labels []int) bool {
	if len(labels) == 0 {
		return false
	}
	first := labels[0]
	for _, l := range labels {
		if l != first {
			return true
		}
	}
	return false
}
