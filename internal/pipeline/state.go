package pipeline

import (
	"fmt"

	"arams/internal/audit"
	"arams/internal/engine"
)

// FrameState is one preprocessed frame retained in the Monitor's
// sliding window, at the float32 precision the window keeps: the
// engine's own frame record (engine.Frame). Vec is shared, not copied —
// with the live window, and with every monitor rebuilt from the state
// (see MonitorState): read it freely, never write to its elements.
type FrameState = engine.Frame

// MonitorState is a checkpointable snapshot of a Monitor: the engine's
// state (engine.State) — the sliding window of preprocessed frames, the
// stream counter, one ARAMS state per shard slot, positionally (slot i
// is shard i, nil when that shard has not received a frame yet; restore
// adopts the checkpoint's shard count, because round-robin routing is
// by global stream index, so the layout is stream state, not
// configuration), and, when the monitor was configured with an Auditor,
// the audit state and journal (nil otherwise). The error-bound
// certificate needs no extra fields: it is a pure function of the sketch
// states (Certificate). The cached UMAP model is deliberately excluded —
// it is a pure acceleration cache, and a restored monitor refits it on
// the first full Snapshot. The pipeline Config is not serialized either;
// the operator supplies the same Config on restart (it contains the
// preprocessing chain and clustering parameters, which are code-level
// choices, not stream state).
//
// The ownership rule is engine.State's. A state from State() shares the
// window's vectors and copies the sketches: it never goes stale and may
// be restored from any number of times. A state that no live monitor
// shares storage with — one ckpt.Load or Unmarshal decoded, or one
// Suspend returned — owns its window vectors and shard buffers:
// NewMonitorFromState hands them to the one monitor restored from it,
// and Release returns them to the pool when it is not restored from.
type MonitorState = engine.State

// State captures the monitor's current state behind the engine's
// ingest gate, so it is safe to call concurrently with Ingest and
// Snapshot and never sees a torn window-vs-sketch cut. The result is a
// read-only view that stays valid and byte-stable however far the
// stream runs on: it shares the window's vectors, which nothing mutates
// or recycles while a state holds them.
func (m *Monitor) State() *MonitorState { return m.eng.State() }

// Suspend is the hibernation path: it captures an owning state — the
// window's vectors and each local shard's sketch buffer, moved, not
// copied — and releases the engine's backends. The monitor must not be
// used after Suspend; NewMonitorFromState over the returned state
// resumes the stream bit-exactly and takes that storage over, so
// hibernate→restore is invisible to sketch bytes, certificates, and
// audit journals. Once the state is saved and not restored from,
// Release returns its storage to the vector pool. The state is returned
// even when a backend close fails.
func (m *Monitor) Suspend() (*MonitorState, error) { return m.eng.Suspend() }

// NewMonitorFromState rebuilds a monitor from a snapshot, resuming the
// stream exactly where the checkpoint left off. cfg must match the
// configuration of the monitor that produced the snapshot; the sketch
// dimension is cross-checked against the stored frames, and the
// checkpoint's shard layout overrides cfg.Shards (see MonitorState).
// The monitor adopts s's window vectors without copying them. From a
// State() cut it treats them as shared, and s stays valid and may be
// restored from again. From an owning state (decoded, or Suspend's) it
// takes the window and the shard buffers over: s stays byte-stable until
// the monitor ingests or its engine closes, and a second restore from s
// returns an error rather than alias one buffer into two monitors.
func NewMonitorFromState(cfg Config, s *MonitorState) (*Monitor, error) {
	if s == nil {
		return nil, fmt.Errorf("pipeline: nil monitor state")
	}
	cfg = cfg.withDefaults()
	eng, err := engine.NewFromState(engineConfig(cfg, s.Window), s)
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
