package pipeline_test

// Chaos and concurrency coverage for the sharded streaming engine
// behind the Monitor facade: kill/restore against the v3 (per-shard)
// checkpoint format, and a -race hammer mixing batch producers,
// quick-snapshot readers, and periodic checkpoint saves.

import (
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"arams/internal/ckpt"
	"arams/internal/pipeline"
	"arams/internal/sketch"
)

// TestChaosShardedKillRestoreRecovers is the sharded variant of the
// kill/restore acceptance test: a 4-shard monitor is killed mid-stream,
// restored from its last checkpoint (which now carries one ARAMS state
// per shard), and resumed. Every shard's final sketch must match a
// never-killed 4-shard control run bit for bit — routing is by global
// stream index and each shard's sampler RNG rides the checkpoint, so
// recovery is exact per shard, not just in aggregate.
func TestChaosShardedKillRestoreRecovers(t *testing.T) {
	const (
		nFrames    = 60
		w, h       = 6, 6
		window     = 16
		ckptEvery  = 8
		auditEvery = 8
		killAt     = 37
		wantResume = 32
		shards     = 4
	)
	frames := chaosFrames(nFrames, w, h, 177)
	cfg := chaosConfig()
	cfg.Shards = shards
	path := filepath.Join(t.TempDir(), "sharded.ckpt")

	control := pipeline.NewMonitor(cfg, window)
	for i, im := range frames {
		control.Ingest(im, i)
	}

	victimCfg := cfg
	victimCfg.Audit = chaosAuditor()
	victimCfg.AuditEvery = auditEvery
	victim := pipeline.NewMonitor(victimCfg, window)
	for i := 0; i < killAt; i++ {
		victim.Ingest(frames[i], i)
		if (i+1)%ckptEvery == 0 {
			if err := ckpt.Save(path, victim.State()); err != nil {
				t.Fatalf("checkpoint at frame %d: %v", i+1, err)
			}
		}
	}
	// The "kill": only the checkpoint file survives.

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
	if len(ms.Shards) != shards {
		t.Fatalf("checkpoint carries %d shard slots, want %d", len(ms.Shards), shards)
	}
	for i, ss := range ms.Shards {
		if ss == nil {
			t.Fatalf("shard %d has no state after %d round-robin frames", i, wantResume)
		}
	}
	if ms.Audit == nil || ms.Journal == nil {
		t.Fatal("sharded checkpoint lost the audit state")
	}

	restoredCfg := cfg
	restoredCfg.Audit = chaosAuditor()
	restoredCfg.AuditEvery = auditEvery
	restored, err := pipeline.NewMonitorFromState(restoredCfg, ms)
	if err != nil {
		t.Fatalf("NewMonitorFromState: %v", err)
	}
	for i := restored.Ingested(); i < nFrames; i++ {
		restored.Ingest(frames[i], i)
	}

	cs, rs := control.State(), restored.State()
	if rs.Ingests != cs.Ingests {
		t.Fatalf("recovered run ingested %d frames, control %d", rs.Ingests, cs.Ingests)
	}
	if len(rs.Shards) != len(cs.Shards) {
		t.Fatalf("recovered run has %d shards, control %d", len(rs.Shards), len(cs.Shards))
	}
	for i := range rs.Frames {
		if rs.Frames[i].Tag != cs.Frames[i].Tag {
			t.Fatalf("window frame %d: tag %d vs control %d", i, rs.Frames[i].Tag, cs.Frames[i].Tag)
		}
	}
	for si := range cs.Shards {
		cfd, rfd := monitorShardFD(t, cs, si), monitorShardFD(t, rs, si)
		if rfd.Ell != cfd.Ell || rfd.NextZero != cfd.NextZero ||
			rfd.Rotations != cfd.Rotations || rfd.Seen != cfd.Seen {
			t.Fatalf("shard %d sketch shape diverged: %+v vs control %+v", si,
				[4]int{rfd.Ell, rfd.NextZero, rfd.Rotations, rfd.Seen},
				[4]int{cfd.Ell, cfd.NextZero, cfd.Rotations, cfd.Seen})
		}
		if !slices.Equal(rfd.Kept, cfd.Kept) || !slices.Equal(rfd.Incoming, cfd.Incoming) {
			t.Fatalf("shard %d buffers diverge", si)
		}
		if err := subspaceErr(cfd, rfd); err > 1e-9 {
			t.Fatalf("shard %d basis subspace error %v > 1e-9", si, err)
		}
	}

	snap := restored.Snapshot()
	if snap == nil {
		t.Fatal("restored sharded monitor returned nil snapshot")
	}
	if len(snap.Tags) != window || snap.Embedding.RowsN != window {
		t.Fatalf("restored snapshot covers %d tags / %d embedded rows, want %d",
			len(snap.Tags), snap.Embedding.RowsN, window)
	}
}

// TestChaosShardedRestoreAdoptsLayout pins the layout rule: restoring a
// 4-shard checkpoint under a config that says Shards=1 must come back
// as 4 shards (the layout is stream state — replaying round-robin
// routing through a different shard count would feed different
// samplers), and continue identically to an undisturbed 4-shard run.
func TestChaosShardedRestoreAdoptsLayout(t *testing.T) {
	const nFrames, w, h, window = 30, 5, 5, 8
	frames := chaosFrames(nFrames, w, h, 311)
	cfg := chaosConfig()
	cfg.Shards = 4

	control := pipeline.NewMonitor(cfg, window)
	first := pipeline.NewMonitor(cfg, window)
	for i, im := range frames {
		control.Ingest(im, i)
		if i < nFrames/2 {
			first.Ingest(im, i)
		}
	}

	mismatched := chaosConfig() // Shards left at default 1
	restored, err := pipeline.NewMonitorFromState(mismatched, first.State())
	if err != nil {
		t.Fatalf("NewMonitorFromState: %v", err)
	}
	for i := restored.Ingested(); i < nFrames; i++ {
		restored.Ingest(frames[i], i)
	}
	cs, rs := control.State(), restored.State()
	if len(rs.Shards) != len(cs.Shards) {
		t.Fatalf("restore kept %d shards, want the checkpoint's %d", len(rs.Shards), len(cs.Shards))
	}
	for si := range cs.Shards {
		cfd, rfd := monitorShardFD(t, cs, si), monitorShardFD(t, rs, si)
		if !slices.Equal(rfd.Kept, cfd.Kept) || !slices.Equal(rfd.Incoming, cfd.Incoming) {
			t.Fatalf("shard %d diverged after layout-adopting restore", si)
		}
	}
}

// TestMonitorShardedConcurrentHammer is the facade-level -race hammer
// from the issue: concurrent IngestBatch producers, QuickSnapshot
// readers, and periodic checkpoint Saves against one 4-shard monitor.
func TestMonitorShardedConcurrentHammer(t *testing.T) {
	const (
		producers = 2
		batches   = 6
		batchLen  = 8
		w, h      = 6, 6
		window    = 24
	)
	cfg := pipeline.Config{
		Sketch:    sketch.Config{Ell0: 6, Beta: 0.9, Seed: 21, Eps: 0.25, Nu: 4, RankAdaptive: true},
		LatentDim: 4,
		Shards:    4,
	}
	m := pipeline.NewMonitor(cfg, window)
	dir := t.TempDir()

	var prodWG, readWG sync.WaitGroup
	stop := make(chan struct{})

	for p := 0; p < producers; p++ {
		prodWG.Add(1)
		go func(p int) {
			defer prodWG.Done()
			frames := chaosFrames(batches*batchLen, w, h, uint64(400+p))
			for b := 0; b < batches; b++ {
				ims := frames[b*batchLen : (b+1)*batchLen]
				tags := make([]int, batchLen)
				for i := range tags {
					tags[i] = p*100000 + b*batchLen + i
				}
				m.IngestBatch(ims, tags)
			}
		}(p)
	}

	readWG.Add(1)
	go func() {
		defer readWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if snap := m.QuickSnapshot(); snap != nil {
				if snap.Embedding.RowsN != len(snap.Tags) {
					t.Error("torn snapshot: embedding/tags mismatch")
					return
				}
			}
		}
	}()

	readWG.Add(1)
	go func() {
		defer readWG.Done()
		path := filepath.Join(dir, "hammer.ckpt")
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := ckpt.Save(path, m.State()); err != nil {
				t.Errorf("checkpoint save: %v", err)
				return
			}
			state, err := ckpt.Load(path)
			if err != nil {
				t.Errorf("checkpoint load: %v", err)
				return
			}
			if _, err := pipeline.NewMonitorFromState(cfg, state.(*pipeline.MonitorState)); err != nil {
				t.Errorf("mid-stream checkpoint does not restore: %v", err)
				return
			}
		}
	}()

	prodWG.Wait()
	close(stop)
	readWG.Wait()

	if got, want := m.Ingested(), producers*batches*batchLen; got != want {
		t.Fatalf("ingested %d frames, want %d", got, want)
	}
	if snap := m.Snapshot(); snap == nil || len(snap.Tags) != window {
		t.Fatalf("final snapshot missing or wrong window size")
	}
}
