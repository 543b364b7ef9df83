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
// Who owns a state's storage decides what a restore does with it. A
// state cut by State() shares its Frames' vectors with the engine's
// window ring (and with any engine rebuilt from it) instead of copying
// them, and its shard sketches are copies: it is a read-only view that
// never goes stale, because window vectors are immutable once in the
// ring and the ring never recycles a vector a state holds. Holders may
// read Frames[i].Vec for as long as they like, encode it, and restore
// from one such state any number of times; they must not write to its
// elements or hand it to mat.PutVec32.
//
// A state that no live engine shares storage with owns it: one Suspend
// returned (the window vectors nobody else had been handed, and every
// local shard's two sketch blocks, moved rather than copied; a remote shard's
// slot holds the last state it fetched, which its closed backend no
// longer reads), or one Own marked (a checkpoint decoder's). Restoring from an owning state hands
// that storage over to the new engine — its ring recycles the vectors,
// its local shards sketch on the blocks — so the state is restored
// from once: a second NewFromState returns an error. Until the new
// engine ingests or closes, the state stays byte-stable and may still be
// encoded. An owning state that is not restored from gives its storage
// back with Release.
type State struct {
	Window  int
	Ingests int
	Frames  []Frame
	Shards  []*sketch.ARAMSState
	Audit   *audit.State
	Journal *audit.JournalState

	// own is set on an owning state: the vectors of the frames whose
	// shared mark is unset are its alone, and so is every shard slot's FD
	// buffer. A copy of the struct shares it, so the storage is still
	// handed over once.
	own *ownership
}

// ownership marks an owning State; taken is set once a restore has
// taken its storage over or Release has returned it.
type ownership struct{ taken bool }

// Own declares s the only holder of its storage — every window vector
// and every shard slot's FD buffer — which a state a checkpoint decoder
// just built is: ckpt marks each monitor state it decodes. A restore
// from s then hands that storage to the new engine instead of copying
// the buffers or treating the vectors as shared (see State). Call it
// only on a state whose storage no engine and no other state holds;
// never on a State() cut.
func (s *State) Own() {
	for i := range s.Frames {
		s.Frames[i].shared = false
	}
	s.own = &ownership{}
}

// Release hands the storage the State owns back to the mat vector pools
// — the window vectors, and each owned shard sketch's ℓ×d float64 and
// float32 blocks — and empties
// the State: Window 0, no frames, no shards, so it can be neither
// encoded nor restored from afterwards. Call it once the state has been
// saved and nothing reads it any more, neither the State nor any copy of
// its Frames. On a state a restore took its storage from, and on a state
// cut by State(), Release only empties it.
func (s *State) Release() {
	if o := s.own; o != nil && !o.taken {
		o.taken = true
		for _, f := range s.Frames {
			if !f.shared {
				mat.PutVec32(f.Vec)
			}
		}
		for _, ss := range s.Shards {
			fd := aramsFD(ss)
			if fd == nil {
				continue
			}
			if cap(fd.Kept) == fd.Ell*fd.D {
				mat.PutVec(fd.Kept)
			}
			if cap(fd.Incoming) == fd.Ell*fd.D {
				mat.PutVec32(fd.Incoming)
			}
		}
	}
	*s = State{}
}

// Certificate composes the error-bound certificate recorded in the
// state's shard sketches: shrinkage and energy ledgers sum, the rank is
// the max — the statement the live engine's Certificate makes for the
// same shards, equal to it but for the time it was cut. The zero
// Certificate when nothing was ingested.
func (s *State) Certificate() audit.Certificate {
	var certs []audit.Certificate
	for _, ss := range s.Shards {
		fd := aramsFD(ss)
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

// aramsFD returns the FD ledger inside an ARAMS shard state, whichever
// variant carries it (nil for an empty slot).
func aramsFD(s *sketch.ARAMSState) *sketch.FDState {
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

// State captures the engine's current state. It takes the ingest gate
// exclusively, so in-flight batches finish first and the snapshot is a
// consistent cut of ring, counters, every shard, and the audit layer.
func (e *Engine) State() *State { return e.capture(false) }

// capture is State; with suspend set it also takes the ring and the
// local shards' sketches: the frames no one else was handed and every
// local shard's buffer become the state's own (see State), the ring is
// cleared and the local shards are closed, so the dead engine keeps no
// reference to them.
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
	// ReadWindow, which marks the same frames without the gate. A
	// suspended ring is cleared instead, and its frames keep their marks:
	// an unmarked one is the state's own.
	e.mu.Lock()
	for i, f := range e.recent {
		f.shared = f.shared || !suspend
		s.Frames[i] = *f
	}
	if suspend {
		clear(e.recent)
		e.recent = nil
		s.own = &ownership{}
	}
	e.mu.Unlock()
	for i, sh := range e.shards {
		var st *sketch.ARAMSState
		var err error
		if ls, ok := sh.(*localShard); ok && suspend {
			st, err = ls.take()
		} else {
			st, err = sh.State()
		}
		if err != nil {
			// Only a closed or remote backend can fail here — journal the
			// gap rather than tearing a checkpoint that the other shards
			// can still serve. The slot stays nil.
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

// Suspend is the hibernation path: it captures an owning state (see
// State) and closes every shard backend, releasing the backends'
// goroutines. Nothing is copied: the state holds the window's vectors,
// and each local shard's live sketch blocks move into its slot. The
// engine must not be used after Suspend; NewFromState over the returned
// state resumes the stream bit-exactly (sampler RNG streams included),
// so a hibernate→restore cycle is invisible to sketch bytes,
// certificates, and audit journals, and it hands the storage on to the
// new engine. Once the state is saved and not restored from, Release
// returns the window vectors the engine had handed to nobody and the
// shard blocks to the pools. Returns the state even when a backend close
// fails — the checkpoint is already consistent by then.
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
// engine adopts s's window vectors without copying them. From a shared
// state (a State() cut) it treats them as shared, never recycled, and
// copies each shard's buffer, so s stays valid and may be restored from
// any number of times. From an owning state (Suspend's, or one Own
// marked) it takes the storage over: the vectors s owned are the ring's
// own, recycled on eviction and returned by Close, and each local shard
// sketches on its slot's buffer. s then stays byte-stable until the new
// engine ingests or closes, and a second restore from it is an error.
func NewFromState(cfg Config, s *State) (*Engine, error) {
	if s == nil {
		return nil, fmt.Errorf("engine: nil state")
	}
	if s.own != nil && s.own.taken {
		return nil, fmt.Errorf("engine: state's storage was handed to an earlier restore or released")
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
	own := s.own
	if own != nil {
		// From here on the storage is the new engine's, even if a shard
		// below refuses its state: the buffers adopted before it are
		// already a dead engine's, so the state must not release them.
		own.taken = true
	}
	for i, ss := range s.Shards {
		if ss == nil {
			continue
		}
		var err error
		if ls, ok := e.shards[i].(*localShard); ok && own != nil {
			err = ls.restore(ss, true)
		} else {
			err = e.shards[i].Restore(ss)
		}
		if err != nil {
			return nil, fmt.Errorf("engine: shard %d: %w", i, err)
		}
		if ell := e.shards[i].Ell(); ell > e.lastEll {
			e.lastEll = ell
		}
	}
	e.recent = make([]*Frame, len(s.Frames))
	for i, f := range s.Frames {
		e.recent[i] = &Frame{Vec: f.Vec, Tag: f.Tag, shared: own == nil || f.shared}
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
