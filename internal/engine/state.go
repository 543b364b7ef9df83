package engine

import (
	"fmt"

	"arams/internal/audit"
	"arams/internal/mat"
	"arams/internal/sketch"
)

// State is a checkpointable snapshot of the engine: the sliding window,
// the stream counter, and one ARAMS state per shard slot. Shard states
// are positional — slot i of the slice is shard i — because round-robin
// routing assigns frames by global stream index, so restoring a
// checkpoint into a different shard layout would replay the stream
// through different samplers. A slot is nil when its shard has not yet
// received a frame. Audit and Journal carry the quality-auditing state
// when the engine was configured with an Auditor (nil otherwise); they
// are captured under the same exclusive gate as the sketches, so a
// checkpoint never pairs a newer audit state with older shard states.
//
// A State is a read-only view that never goes stale. Its Frames share
// their vectors with the engine's window ring (and with any engine
// rebuilt from it) instead of copying them; that is safe because window
// vectors are immutable once in the ring and the ring never recycles a
// vector a State holds, however far the stream runs on. Holders may
// read Frames[i].Vec for as long as they like, encode it, and restore
// from one State any number of times; they must not write to its
// elements or hand it to mat.PutVec32.
//
// The one exception is a State from Suspend, which also owns the window
// vectors nobody else was handed (see Release).
type State struct {
	Window  int
	Ingests int
	Frames  []Frame
	Shards  []*sketch.ARAMSState
	Audit   *audit.State
	Journal *audit.JournalState

	// owned are the vectors of the frames Suspend took from the ring
	// that no State, Window or restored engine had been handed: the
	// suspended engine is gone, so this State is their only holder.
	owned [][]float32
}

// Release hands the vectors the State owns back to the mat vector pool
// and empties the State: Window 0, no frames, no shards, so it can be
// neither encoded nor restored from afterwards. Call it once the state
// has been saved and nothing reads it any more — neither the State nor
// any copy of its Frames, nor an engine rebuilt from it. Vectors that
// State, ReadWindow or NewFromState had handed out before Suspend are
// not owned and are never released; on a State from State() Release
// only empties it.
func (s *State) Release() {
	for _, v := range s.owned {
		mat.PutVec32(v)
	}
	*s = State{}
}

// State captures the engine's current state. It takes the ingest gate
// exclusively, so in-flight batches finish first and the snapshot is a
// consistent cut of ring, counters, every shard, and the audit layer.
func (e *Engine) State() *State { return e.capture(false) }

// capture is State; with suspend set it also takes the ring: the frames
// no one else was handed become the state's own (see State.Release), and
// the ring is cleared, so the dead engine keeps no reference to them.
func (e *Engine) capture(suspend bool) *State {
	e.gate.Lock()
	defer e.gate.Unlock()
	s := &State{
		Window:  e.cfg.Window,
		Ingests: e.ingests,
		Frames:  make([]Frame, len(e.recent)),
		Shards:  make([]*sketch.ARAMSState, len(e.shards)),
	}
	// Vectors are handed out, not cloned; the mark keeps the eviction
	// path from recycling them under the handle. The exclusive gate
	// already keeps every eviction out; mu orders the write against
	// ReadWindow, which marks the same frames without the gate.
	e.mu.Lock()
	for i, f := range e.recent {
		if suspend && !f.shared {
			s.owned = append(s.owned, f.Vec)
		}
		f.shared = true
		s.Frames[i] = *f
	}
	if suspend {
		clear(e.recent)
		e.recent = nil
	}
	e.mu.Unlock()
	for i, sh := range e.shards {
		st, err := sh.State()
		if err != nil {
			// Only remote backends can fail here, and only after Close —
			// journal the gap rather than tearing a checkpoint that local
			// shards can still serve. The slot stays nil.
			audit.Default().Record("shard_state_error",
				"shard backend failed to serve checkpoint state; slot left empty",
				audit.A("shard", float64(i)))
			continue
		}
		s.Shards[i] = st
	}
	if e.cfg.Audit != nil {
		ast := e.cfg.Audit.State()
		jst := e.cfg.Audit.Journal().State()
		s.Audit = &ast
		s.Journal = &jst
	}
	return s
}

// Suspend is the hibernation path: it captures a state handle (see
// State: it holds the window's vectors rather than copying them, and
// outlives the engine) and closes every shard backend, releasing the
// backends' goroutines and everything the handle does not hold — a
// local shard's sketch buffer goes back to the vector pool. The engine
// must not be used after Suspend; NewFromState over the returned handle
// resumes the stream bit-exactly (sampler RNG streams included), so a
// hibernate→restore cycle is invisible to sketch bytes, certificates,
// and audit journals. The handle owns the window vectors the engine had
// handed to nobody: once it is saved, Release returns them to the pool.
// Returns the state even when a backend close fails — the checkpoint is
// already consistent by then.
func (e *Engine) Suspend() (*State, error) {
	s := e.capture(true)
	return s, e.closeBackends()
}

// NewFromState rebuilds an engine from a snapshot, resuming the stream
// exactly where the checkpoint left off (sampler RNG streams included).
// The checkpoint's shard layout wins: len(s.Shards) overrides
// cfg.Shards when they disagree, because routing determinism is a
// property of the layout the stream was sharded under. cfg.Shards is
// honored only for empty checkpoints (nothing ingested yet). The new
// engine adopts s's window vectors without copying them and treats them
// as shared (never recycled), so s stays valid and one State may be
// restored any number of times.
func NewFromState(cfg Config, s *State) (*Engine, error) {
	if s == nil {
		return nil, fmt.Errorf("engine: nil state")
	}
	if s.Window <= 0 {
		return nil, fmt.Errorf("engine: state has window=%d", s.Window)
	}
	if s.Ingests < len(s.Frames) || len(s.Frames) > s.Window {
		return nil, fmt.Errorf("engine: state has %d frames for window=%d ingests=%d",
			len(s.Frames), s.Window, s.Ingests)
	}
	populated := 0
	dim := 0
	for _, ss := range s.Shards {
		if ss == nil {
			continue
		}
		populated++
		if dim == 0 {
			dim = ss.D
		} else if ss.D != dim {
			return nil, fmt.Errorf("engine: state shards disagree on dimension (%d vs %d)", dim, ss.D)
		}
	}
	if populated == 0 && (s.Ingests > 0 || len(s.Frames) > 0) {
		return nil, fmt.Errorf("engine: state has %d ingests but no sketch", s.Ingests)
	}
	for i, f := range s.Frames {
		if dim > 0 && len(f.Vec) != dim {
			return nil, fmt.Errorf("engine: state frame %d has %d features, sketch expects %d",
				i, len(f.Vec), dim)
		}
	}

	cfg.Window = s.Window
	if len(s.Shards) > 0 {
		cfg.Shards = len(s.Shards)
		if len(cfg.Backends) > 0 && len(cfg.Backends) != len(s.Shards) {
			return nil, fmt.Errorf("engine: checkpoint has %d shards but %d backends supplied",
				len(s.Shards), len(cfg.Backends))
		}
	}
	e := New(cfg)
	for i, ss := range s.Shards {
		if ss == nil {
			continue
		}
		if err := e.shards[i].Restore(ss); err != nil {
			return nil, fmt.Errorf("engine: shard %d: %w", i, err)
		}
		if ell := e.shards[i].Ell(); ell > e.lastEll {
			e.lastEll = ell
		}
	}
	e.recent = make([]*Frame, len(s.Frames))
	for i, f := range s.Frames {
		e.recent[i] = &Frame{Vec: f.Vec, Tag: f.Tag, shared: true}
	}
	e.ingests, e.absorbed = s.Ingests, s.Ingests
	if cfg.Audit != nil {
		if s.Journal != nil {
			cfg.Audit.Journal().Restore(*s.Journal)
		}
		if s.Audit != nil {
			cfg.Audit.Restore(*s.Audit)
		}
	}
	return e, nil
}
