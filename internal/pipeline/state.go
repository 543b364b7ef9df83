package pipeline

import (
	"fmt"

	"arams/internal/audit"
	"arams/internal/engine"
	"arams/internal/sketch"
)

// FrameState is one preprocessed frame retained in the Monitor's
// sliding window, at the float32 precision the window keeps. Vec is
// shared, not copied — with the live window, and with every monitor
// rebuilt from the state (see engine.State): read it freely, never
// write to its elements.
type FrameState struct {
	Vec []float32
	Tag int
}

// MonitorState is a checkpointable snapshot of a Monitor: the sliding
// window of preprocessed frames plus the full per-shard ARAMS sketch
// states. The cached UMAP model is deliberately excluded — it is a pure
// acceleration cache, and a restored monitor refits it on the first
// full Snapshot. The pipeline Config is not serialized either; the
// operator supplies the same Config on restart (it contains the
// preprocessing chain and clustering parameters, which are code-level
// choices, not stream state).
type MonitorState struct {
	Window  int
	Ingests int
	Frames  []FrameState
	// Shards holds one ARAMS state per engine shard slot, positionally:
	// slot i is shard i, nil when that shard has not received a frame
	// yet. Restore adopts the checkpoint's shard count (round-robin
	// routing is by global stream index, so the layout is stream state,
	// not configuration). Empty when nothing has been ingested yet.
	Shards []*sketch.ARAMSState
	// Audit and Journal carry the quality-auditing state — drift
	// detector internals and the recent event ring — when the monitor
	// was configured with an Auditor. Both are nil otherwise, so
	// restore treats nil as "no audit state". The error-bound
	// certificate itself needs no extra fields here: it is a pure
	// function of the sketch states (shrinkage and Frobenius mass ride
	// in FDState, and certificates compose additively across the shard
	// merge).
	Audit   *audit.State
	Journal *audit.JournalState

	// eng is the engine state this one was cut from; a Suspend's owns
	// the window vectors Release hands back.
	eng *engine.State
}

// Release empties the state — Window 0, no frames, no shards, so
// ckpt.Marshal and NewMonitorFromState refuse it — and, for a state from
// Suspend, returns the window vectors only it held to the mat vector
// pool (engine.State.Release). Call it after the state has been saved,
// when neither it nor any copy of its Frames is read again; never on a
// state a live monitor was rebuilt from.
func (s *MonitorState) Release() {
	if s.eng != nil {
		s.eng.Release()
	}
	*s = MonitorState{}
}

// State captures the monitor's current state behind the engine's
// ingest gate, so it is safe to call concurrently with Ingest and
// Snapshot and never sees a torn window-vs-sketch cut. The result is a
// read-only view that stays valid and byte-stable however far the
// stream runs on: it shares the window's vectors, which nothing mutates
// or recycles while a state holds them.
func (m *Monitor) State() *MonitorState {
	return monitorStateOf(m.eng.State())
}

func monitorStateOf(es *engine.State) *MonitorState {
	s := &MonitorState{
		Window:  es.Window,
		Ingests: es.Ingests,
		Frames:  make([]FrameState, len(es.Frames)),
		Shards:  es.Shards,
		Audit:   es.Audit,
		Journal: es.Journal,
		eng:     es,
	}
	for i, f := range es.Frames {
		s.Frames[i] = FrameState{Vec: f.Vec, Tag: f.Tag}
	}
	return s
}

// Suspend is the hibernation path: it stops the monitor's engine
// (draining any queued frames), captures a state handle that holds the
// window's vectors and outlives the engine, and releases the engine's
// backends and goroutines. The monitor must not be used after Suspend;
// NewMonitorFromState over the returned state resumes the stream
// bit-exactly, so hibernate→restore is invisible to sketch bytes,
// certificates, and audit journals. Once the state is saved, Release
// returns its window to the vector pool. The state is returned even
// when a backend close fails.
func (m *Monitor) Suspend() (*MonitorState, error) {
	es, err := m.eng.Suspend()
	if es == nil {
		return nil, err
	}
	return monitorStateOf(es), err
}

// Certificate composes the error-bound certificate recorded in the
// state's shard sketches: shrinkage and energy ledgers sum, the rank is
// the max — the statement the live engine's Certificate makes for the
// same shards, equal to it but for the time it was cut. The zero
// Certificate when nothing was ingested.
func (s *MonitorState) Certificate() audit.Certificate {
	var certs []audit.Certificate
	for _, ss := range s.Shards {
		fd := aramsFDState(ss)
		if fd == nil {
			continue
		}
		certs = append(certs, audit.Certificate{
			Rows:       fd.Seen,
			Dim:        fd.D,
			Ell:        fd.Ell,
			Rotations:  fd.Rotations,
			ShrinkMass: fd.TotalDelta,
			FrobMass:   fd.FrobMass,
		})
	}
	return audit.Compose(certs...)
}

// aramsFDState returns the FD ledger inside an ARAMS shard state,
// whichever variant carries it (nil for an empty slot).
func aramsFDState(s *sketch.ARAMSState) *sketch.FDState {
	switch {
	case s == nil:
		return nil
	case s.RankAdaptive != nil:
		return &s.RankAdaptive.FD
	case s.FD != nil:
		return s.FD
	}
	return nil
}

// NewMonitorFromState rebuilds a monitor from a snapshot, resuming the
// stream exactly where the checkpoint left off. cfg must match the
// configuration of the monitor that produced the snapshot; the sketch
// dimension is cross-checked against the stored frames, and the
// checkpoint's shard layout overrides cfg.Shards (see MonitorState).
// The monitor adopts s's window vectors without copying them; s stays
// valid, and may be restored from again.
func NewMonitorFromState(cfg Config, s *MonitorState) (*Monitor, error) {
	if s == nil {
		return nil, fmt.Errorf("pipeline: nil monitor state")
	}
	cfg = cfg.withDefaults()
	es := &engine.State{
		Window:  s.Window,
		Ingests: s.Ingests,
		Frames:  make([]engine.Frame, len(s.Frames)),
		Shards:  s.Shards,
		Audit:   s.Audit,
		Journal: s.Journal,
	}
	for i, f := range s.Frames {
		es.Frames[i] = engine.Frame{Vec: f.Vec, Tag: f.Tag}
	}
	eng, err := engine.NewFromState(engineConfig(cfg, s.Window), es)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	if cfg.Audit != nil {
		cfg.Audit.Journal().Record(audit.KindCheckpointRestore,
			"monitor state restored",
			audit.A("ingests", float64(s.Ingests)),
			audit.A("frames", float64(len(s.Frames))))
	}
	return &Monitor{cfg: cfg, window: s.Window, eng: eng}, nil
}
