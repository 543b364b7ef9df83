package pipeline_test

// Chaos test for the fault-tolerant monitor: kill the monitor
// mid-stream (in-process: abandon the object, keeping only its last
// on-disk checkpoint), restore from the checkpoint, finish the stream,
// and require the recovered run to match a never-killed control run.
// The test lives in an external package because internal/ckpt imports
// internal/pipeline for the MonitorState codec.

import (
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"arams/internal/audit"
	"arams/internal/ckpt"
	"arams/internal/imgproc"
	"arams/internal/mat"
	"arams/internal/obs"
	"arams/internal/pipeline"
	"arams/internal/rng"
	"arams/internal/sketch"
)

// chaosFrames builds a deterministic stream of small detector frames:
// a low-rank structured signal plus noise, so the sketch has real
// directions to track.
func chaosFrames(n, w, h int, seed uint64) []*imgproc.Image {
	g := rng.New(seed)
	frames := make([]*imgproc.Image, n)
	for i := range frames {
		im := imgproc.NewImage(w, h)
		cx, cy := float64(i%w), float64((i/2)%h)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				dx, dy := float64(x)-cx, float64(y)-cy
				im.Set(x, y, 10/(1+dx*dx+dy*dy)+0.1*g.Norm())
			}
		}
		frames[i] = im
	}
	return frames
}

func chaosConfig() pipeline.Config {
	return pipeline.Config{
		Sketch:    sketch.Config{Ell0: 6, Beta: 0.9, Seed: 21, Eps: 0.25, Nu: 4, RankAdaptive: true},
		LatentDim: 4,
	}
}

// chaosAuditor builds an isolated auditor for the kill/restore test;
// CertEvery 1 journals a certificate for every audited batch so the
// checkpoint carries a populated event ring.
func chaosAuditor() *audit.Auditor {
	return audit.New(audit.Config{
		Journal:   audit.NewJournal(128),
		Registry:  obs.NewRegistry(),
		Residual:  audit.NewPageHinkley(0.01, 0.5),
		CertEvery: 1,
	})
}

// TestChaosKillRestoreRecovers is the recovery acceptance test: a
// monitor is killed mid-stream, restored from its last periodic
// checkpoint, and resumed from the frame index the checkpoint recorded.
// The recovered run's final sketch must match a never-killed control
// run bit for bit — error-bound certificate fields included — and its
// basis subspace error against the control must be within 1e-9. The
// audit layer must survive the same round trip: the checkpoint carries
// the auditor's detector state and the journal ring, and the restored
// monitor resumes both (plus a journaled checkpoint_restore marker).
// A concurrent snapshotter hammers State()/Ell() throughout so -race
// exercises the checkpoint path against live ingestion.
func TestChaosKillRestoreRecovers(t *testing.T) {
	const (
		nFrames    = 60
		w, h       = 6, 6
		window     = 16
		ckptEvery  = 8
		auditEvery = 8  // audit flush on every checkpoint boundary
		killAt     = 37 // mid-stream, past the checkpoint at frame 32
		wantResume = 32 // last checkpoint boundary before the kill
	)
	frames := chaosFrames(nFrames, w, h, 77)
	cfg := chaosConfig()
	path := filepath.Join(t.TempDir(), "monitor.ckpt")

	// Control: the run that never dies.
	control := pipeline.NewMonitor(cfg, window)
	for i, im := range frames {
		control.Ingest(im, i)
	}

	// Victim: ingest with periodic checkpoints and a concurrent reader,
	// then die at killAt. Unlike the control it audits as it goes — the
	// auditor must not perturb the sketch, and its state must ride the
	// checkpoint.
	victimCfg := cfg
	victimCfg.Audit = chaosAuditor()
	victimCfg.AuditEvery = auditEvery
	victim := pipeline.NewMonitor(victimCfg, window)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = victim.State()
				_ = victim.Ell()
			}
		}
	}()
	for i := 0; i < killAt; i++ {
		victim.Ingest(frames[i], i)
		if (i+1)%ckptEvery == 0 {
			if err := ckpt.Save(path, victim.State()); err != nil {
				t.Fatalf("checkpoint at frame %d: %v", i+1, err)
			}
		}
	}
	close(stop)
	wg.Wait()
	// The "kill": victim is abandoned here. Only the checkpoint file
	// survives.

	state, err := ckpt.Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	ms, ok := state.(*pipeline.MonitorState)
	if !ok {
		t.Fatalf("Load returned %T, want *pipeline.MonitorState", state)
	}
	if ms.Ingests != wantResume {
		t.Fatalf("checkpoint recorded %d ingests, want %d", ms.Ingests, wantResume)
	}
	// The checkpoint must carry the audit state: one audited batch per
	// auditEvery frames, and a journal with at least those certificates.
	if ms.Audit == nil || ms.Journal == nil {
		t.Fatalf("checkpoint lost the audit state: audit=%v journal=%v", ms.Audit, ms.Journal)
	}
	if want := int64(wantResume / auditEvery); ms.Audit.Batches != want {
		t.Fatalf("checkpoint recorded %d audited batches, want %d", ms.Audit.Batches, want)
	}
	if ms.Audit.Residual.Kind != "page_hinkley" || ms.Audit.Residual.N != int(ms.Audit.Batches) {
		t.Fatalf("checkpoint detector state %+v diverged from batch count %d",
			ms.Audit.Residual, ms.Audit.Batches)
	}
	if int64(len(ms.Journal.Events)) < ms.Audit.Batches || ms.Journal.Seq < ms.Audit.Batches {
		t.Fatalf("checkpoint journal seq=%d events=%d, want ≥ %d certificates",
			ms.Journal.Seq, len(ms.Journal.Events), ms.Audit.Batches)
	}
	savedSeq := ms.Journal.Seq

	restoredCfg := cfg
	restoredCfg.Audit = chaosAuditor()
	restoredCfg.AuditEvery = auditEvery
	restored, err := pipeline.NewMonitorFromState(restoredCfg, ms)
	if err != nil {
		t.Fatalf("NewMonitorFromState: %v", err)
	}
	// The restored auditor resumed the counters and detector internals,
	// and journaled the restore itself with continued sequence numbers.
	if restoredCfg.Audit.Batches() != ms.Audit.Batches {
		t.Fatalf("restored auditor has %d batches, want %d", restoredCfg.Audit.Batches(), ms.Audit.Batches)
	}
	if st := restoredCfg.Audit.State(); st.Residual != ms.Audit.Residual {
		t.Fatalf("restored detector state %+v != checkpointed %+v", st.Residual, ms.Audit.Residual)
	}
	marks := restoredCfg.Audit.Journal().Query(audit.Query{Kind: audit.KindCheckpointRestore})
	if len(marks) != 1 || marks[0].Seq <= savedSeq {
		t.Fatalf("checkpoint_restore marker = %+v, want one event with seq > %d", marks, savedSeq)
	}
	// Resume the stream exactly where the checkpoint left off.
	for i := restored.Ingested(); i < nFrames; i++ {
		restored.Ingest(frames[i], i)
	}
	// Auditing resumed mid-stream: flushes at frames 40, 48, 56.
	if want := int64(56 / auditEvery); restoredCfg.Audit.Batches() != want {
		t.Fatalf("resumed auditor has %d batches, want %d", restoredCfg.Audit.Batches(), want)
	}
	if n := restoredCfg.Audit.State().Residual.N; n != 56/auditEvery {
		t.Fatalf("resumed detector consumed %d observations, want %d", n, 56/auditEvery)
	}

	cs, rs := control.State(), restored.State()
	if rs.Ingests != cs.Ingests {
		t.Fatalf("recovered run ingested %d frames, control %d", rs.Ingests, cs.Ingests)
	}
	if len(rs.Frames) != len(cs.Frames) {
		t.Fatalf("recovered window has %d frames, control %d", len(rs.Frames), len(cs.Frames))
	}
	for i := range rs.Frames {
		if rs.Frames[i].Tag != cs.Frames[i].Tag {
			t.Fatalf("window frame %d: tag %d vs control %d", i, rs.Frames[i].Tag, cs.Frames[i].Tag)
		}
	}

	cfd, rfd := monitorFD(t, cs), monitorFD(t, rs)
	if rfd.Ell != cfd.Ell || rfd.NextZero != cfd.NextZero ||
		rfd.Rotations != cfd.Rotations || rfd.Seen != cfd.Seen {
		t.Fatalf("recovered sketch shape diverged: %+v vs control %+v",
			[4]int{rfd.Ell, rfd.NextZero, rfd.Rotations, rfd.Seen},
			[4]int{cfd.Ell, cfd.NextZero, cfd.Rotations, cfd.Seen})
	}
	// Bit-exact recovery: the restored stream must be indistinguishable
	// from one that never died.
	if !slices.Equal(rfd.Kept, cfd.Kept) || !slices.Equal(rfd.Incoming, cfd.Incoming) {
		t.Fatal("sketch buffers diverge")
	}
	// The acceptance criterion stated as a subspace error: with
	// bit-exact buffers the basis subspaces coincide, so the error is
	// identically 0 ≤ 1e-9; computing it through the sketch state keeps
	// the assertion meaningful if the recovery ever becomes approximate.
	if err := subspaceErr(cfd, rfd); err > 1e-9 {
		t.Fatalf("basis subspace error %v > 1e-9", err)
	}

	// The restored monitor must stay fully functional: a live snapshot
	// over the recovered window.
	snap := restored.Snapshot()
	if snap == nil {
		t.Fatal("restored monitor returned nil snapshot")
	}
	if len(snap.Tags) != window || snap.Embedding.RowsN != window {
		t.Fatalf("restored snapshot covers %d tags / %d embedded rows, want %d",
			len(snap.Tags), snap.Embedding.RowsN, window)
	}
}

// TestChaosRestartWithoutCheckpoint covers the cold-start path: a
// checkpoint taken before any frame arrived restores to an empty
// monitor that then processes the whole stream identically to a fresh
// one.
func TestChaosRestartWithoutCheckpoint(t *testing.T) {
	cfg := chaosConfig()
	path := filepath.Join(t.TempDir(), "empty.ckpt")
	empty := pipeline.NewMonitor(cfg, 8)
	if err := ckpt.Save(path, empty.State()); err != nil {
		t.Fatalf("Save: %v", err)
	}
	state, err := ckpt.Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	restored, err := pipeline.NewMonitorFromState(cfg, state.(*pipeline.MonitorState))
	if err != nil {
		t.Fatalf("NewMonitorFromState: %v", err)
	}
	fresh := pipeline.NewMonitor(cfg, 8)
	for i, im := range chaosFrames(20, 5, 5, 3) {
		restored.Ingest(im, i)
		fresh.Ingest(im, i)
	}
	a, b := monitorFD(t, restored.State()), monitorFD(t, fresh.State())
	if !slices.Equal(a.Kept, b.Kept) || !slices.Equal(a.Incoming, b.Incoming) {
		t.Fatal("cold-restored run diverged from fresh run")
	}
}

// monitorFD extracts shard 0's FD core from a monitor state regardless
// of which ARAMS variant (fixed or rank-adaptive) the config selected.
// The serial-configuration chaos tests run one shard, so shard 0 IS the
// whole sketch.
func monitorFD(t *testing.T, s *pipeline.MonitorState) *sketch.FDState {
	t.Helper()
	return monitorShardFD(t, s, 0)
}

// monitorShardFD extracts shard i's FD core from a monitor state.
func monitorShardFD(t *testing.T, s *pipeline.MonitorState, i int) *sketch.FDState {
	t.Helper()
	if i >= len(s.Shards) || s.Shards[i] == nil {
		t.Fatalf("monitor state has no sketch for shard %d", i)
	}
	return &s.Shards[i].FD
}

// subspaceErr measures how far apart two sketch states' row spaces are:
// the largest absolute entry of B₁ᵀB₁ − B₂ᵀB₂ over the occupied buffer
// rows. Zero iff the sketches induce identical covariance estimates.
func subspaceErr(a, b *sketch.FDState) float64 {
	gram := func(s *sketch.FDState) []float64 {
		g := make([]float64, s.D*s.D)
		wide := make([]float64, len(s.Incoming))
		mat.Widen(wide, s.Incoming)
		rows := append(append([]float64(nil), s.Kept...), wide...)
		for r := 0; r < s.NextZero; r++ {
			row := rows[r*s.D : (r+1)*s.D]
			for i := 0; i < s.D; i++ {
				for j := 0; j < s.D; j++ {
					g[i*s.D+j] += row[i] * row[j]
				}
			}
		}
		return g
	}
	ga, gb := gram(a), gram(b)
	worst := 0.0
	for i := range ga {
		d := ga[i] - gb[i]
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}
