package engine

import (
	"fmt"
	"sync"
	"time"

	"arams/internal/audit"
	"arams/internal/mat"
	"arams/internal/obs"
	"arams/internal/parallel"
	"arams/internal/sketch"
)

// Backend is one shard's sketching state behind the engine's routing:
// the engine decides which rows a shard gets (round-robin) and the
// backend decides where the sketching happens —
// in-process (localShard, the default) or on the far side of a TCP
// connection (internal/fabric's Remote). The contract is the serial
// monitor's absorb semantics: rows are fed one at a time in stream
// order, so a remote backend given the same per-shard configuration and
// row sequence produces a sketch bit-identical to a local one. The
// interface holds every method the engine calls; the engine never
// asserts a backend to anything else.
//
// Local backends are infallible; remote backends recover transport
// faults themselves (reconnect, state restore, row replay, then a
// bit-exact local fallback), so what they return is a result, a fatal
// error or a decode error, and the engine asks once. Backends must be safe
// for concurrent calls: the engine serializes nothing across its
// snapshot/state/ingest paths beyond its own locks.
//
// The one exception to "the interface is all the engine calls" is
// storage handover: for its own in-process shards (*localShard) the
// engine passes each row's window vector beside its working vector, and
// the sketch keeps the window vector as its float32 row until its next
// rotation instead of rounding a copy of its own (localShard.absorb; the
// engine holds those frames for it); a suspending engine moves the live
// sketch buffer into the state instead of copying it, and a restore from
// an owning state adopts the slot's buffer (see State). A remote backend
// keeps the state it restored from, so it is only ever given states
// through Restore, and copies every row it is sent.
type Backend interface {
	// Absorb feeds the selected rows (all of vecs when idx is nil) in
	// order and returns the fold of the per-row batch stats, with
	// EllBefore/EllAfter bracketing the whole dispatch. parent is the
	// dispatching span: a remote backend carries it over the wire so the
	// worker's spans join the caller's trace; a local one ignores it.
	Absorb(parent obs.SpanContext, vecs [][]float64, idx []int) (sketch.BatchStats, error)
	// Snapshot returns a copy of the shard sketch that the caller owns
	// — the reconcile merge folds it in place and releases it
	// (parallel.RemoteLeg states the contract) — and leaves the live
	// sketch untouched. (nil, nil) means no rows have been absorbed yet.
	// parent is the fetching span, as for Absorb.
	Snapshot(parent obs.SpanContext) (*sketch.FrequentDirections, error)
	// State returns the checkpointable sketcher state, or (nil, nil)
	// before the first row.
	State() (*sketch.ARAMSState, error)
	// Restore replaces the shard's sketcher with the given state
	// (checkpoint resume).
	Restore(st *sketch.ARAMSState) error
	// Certificate returns the shard sketch's error-bound certificate
	// (the zero certificate before the first row) without handing out
	// the sketch: the audit tick, which composes every shard's, neither
	// clones nor ships a 2ℓ×d buffer, and a remote backend's replay log
	// is left alone.
	Certificate() (audit.Certificate, error)
	// Basis returns the top-k right singular vectors of the shard sketch
	// (k clamped to the rank) and ℓ, or (nil, 0) before the first row or
	// on a fault. Basis is a function of the sketch's state, so every
	// backend returns the same bits for the same rows. The basis is the
	// caller's, cut into an array from mat's vector pool
	// (FrequentDirections.Basis): a one-shard Window's Release hands its
	// Data to mat.PutVec.
	Basis(k int) (*mat.Matrix, int)
	// Ell returns the shard sketch's current rank (0 before the first
	// row). Remote backends may answer from their last acknowledged
	// rank rather than a fresh round trip.
	Ell() int
	// Busy returns the cumulative wall time spent absorbing rows — the
	// critical-path accounting ShardBusy exposes.
	Busy() time.Duration
	// Close releases the backend's resources and aborts in-flight
	// work; subsequent calls fail fast.
	Close() error
}

// localShard is the in-process Backend: one ARAMS sketcher under its
// own lock, so shards absorb rows concurrently and snapshots
// interleave with ingest.
type localShard struct {
	cfg  sketch.Config // per-shard seed already derived
	rows int           // expected row count for the rank-adaptation guard; 0 = unknown

	mu     sync.Mutex
	arams  *sketch.ARAMS
	busy   time.Duration // cumulative wall time spent inside Absorb
	closed bool          // Close ran: every call fails fast

	// rowView is the reusable 1×d header Absorb wraps each row in, and
	// row32 the one-row list it passes the row's ring vector in, so the
	// per-row ProcessBatch call allocates nothing. Guarded by mu like the
	// sketcher they feed.
	rowView mat.Matrix
	row32   [1][]float32
}

// NewLocalBackend creates an in-process shard backend. scfg must
// already be shard-derived (ShardSketchConfig); internal/fabric uses
// this as the degraded mode when a remote worker cannot be dialed.
func NewLocalBackend(scfg sketch.Config) Backend {
	return &localShard{cfg: scfg}
}

// LocalBackends returns the in-process backends of a shards-way
// engine. frames is the number of frames the engine will ingest, or 0
// when the stream's length is unknown. Round-robin routing sends shard i
// ⌈(frames−i)/shards⌉ of them, and each shard's sketcher is told so: a
// rank-adaptive shard then keeps Algorithm 2's end-of-stream guard and
// does not grow ℓ within its last ℓ+ν rows. Frames the engine rejects
// (a NaN or ±Inf pixel) never reach a shard, so with rejections the
// guard counts a few rows that never come.
func LocalBackends(scfg sketch.Config, shards, frames int) []Backend {
	shards = max(1, shards)
	out := make([]Backend, shards)
	for i := range out {
		out[i] = &localShard{cfg: ShardSketchConfig(scfg, i), rows: max(0, frames-i+shards-1) / shards}
	}
	return out
}

// Absorb feeds the selected rows into the shard's sketcher one row at
// a time — per-row ProcessBatch calls keep the priority sampler's RNG
// consumption identical to the serial per-frame monitor, which the
// bit-exact restore tests rely on.
func (s *localShard) Absorb(_ obs.SpanContext, vecs [][]float64, idx []int) (sketch.BatchStats, error) {
	bs, _, err := s.absorb(vecs, nil, idx)
	return bs, err
}

// absorb is Absorb for the engine that owns the shard, which passes
// each frame's ring vector beside its working vector (rows32[i] is the
// float32 copy of vecs[i]): the sketch borrows the ring vectors as its
// float32 rows instead of rounding a copy of its own
// (sketch.ARAMS.ProcessBatchBorrowing). With rows32 nil it is Absorb.
// at is the position among the selected rows of the last one whose
// append rotated the sketch, or -1: the sketch still borrows that row's
// vector and those after it, and none before it.
func (s *localShard) absorb(vecs [][]float64, rows32 [][]float32, idx []int) (sketch.BatchStats, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return sketch.BatchStats{}, -1, parallel.ErrBackendClosed
	}
	start := time.Now()
	defer func() { s.busy += time.Since(start) }()
	nrows := len(idx)
	if idx == nil {
		nrows = len(vecs)
	}
	if nrows == 0 {
		return sketch.BatchStats{}, -1, nil
	}
	row := func(i int) int {
		if idx == nil {
			return i
		}
		return idx[i]
	}
	if s.arams == nil {
		s.arams = sketch.NewARAMS(s.cfg, len(vecs[row(0)]), s.rows)
	}
	var agg sketch.BatchStats
	agg.EllBefore = s.arams.Ell()
	at := -1
	fd := s.arams.FD()
	rv := &s.rowView
	for i := 0; i < nrows; i++ {
		v := vecs[row(i)]
		// Reuse one 1×d header across rows instead of allocating a
		// matrix per frame; the sketch keeps neither the header nor the
		// float64 data.
		rv.RowsN, rv.ColsN, rv.Stride, rv.Data = 1, len(v), len(v), v
		rotations := fd.Rotations()
		var bs sketch.BatchStats
		if rows32 == nil {
			bs = s.arams.ProcessBatch(rv)
		} else {
			s.row32[0] = rows32[row(i)]
			bs = s.arams.ProcessBatchBorrowing(rv, s.row32[:])
		}
		if fd.Rotations() != rotations {
			at = i
		}
		agg.Rows += bs.Rows
		agg.Kept += bs.Kept
		agg.TotalMass += bs.TotalMass
		agg.KeptMass += bs.KeptMass
		agg.DeltaAdded += bs.DeltaAdded
	}
	rv.Data, s.row32[0] = nil, nil
	agg.EllAfter = s.arams.Ell()
	return agg, at, nil
}

// Snapshot clones the shard sketch for merging. The clone's buffer is
// borrowed from the mat vector pool, and the caller owns it: the
// reconcile merge releases it once folded (or once the basis is cut
// from the merge it became), GlobalSketch hands it on unreleased.
func (s *localShard) Snapshot(obs.SpanContext) (*sketch.FrequentDirections, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, parallel.ErrBackendClosed
	}
	if s.arams == nil {
		return nil, nil
	}
	return s.arams.FD().Clone(), nil
}

// Basis decomposes the live sketch in place into a pooled k×d result,
// so a one-shard read clones no sketch, and a released read's
// array serves the next. Basis changes nothing, so the lock only keeps
// Absorb from writing the buffer mid-read.
func (s *localShard) Basis(k int) (*mat.Matrix, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.arams == nil {
		return nil, 0
	}
	fd := s.arams.FD()
	return fd.Basis(k), fd.Ell()
}

// Certificate reads the live sketch's certificate in place.
func (s *localShard) Certificate() (audit.Certificate, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return audit.Certificate{}, parallel.ErrBackendClosed
	}
	if s.arams == nil {
		return audit.Certificate{}, nil
	}
	return audit.FromSketch(s.arams.FD()), nil
}

// State captures the sketcher's checkpoint state.
func (s *localShard) State() (*sketch.ARAMSState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, parallel.ErrBackendClosed
	}
	if s.arams == nil {
		return nil, nil
	}
	st := s.arams.State()
	return &st, nil
}

// take is State for a suspending engine, which owns the result: the
// live sketch's buffer moves into the state instead of being copied, its
// borrowed rows gathered into a float32 block of the state's own
// (sketch.ARAMS.TakeState), and the shard is closed, as Close leaves it.
func (s *localShard) take() (*sketch.ARAMSState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, parallel.ErrBackendClosed
	}
	s.closed = true
	if s.arams == nil {
		return nil, nil
	}
	st := s.arams.TakeState()
	s.arams = nil
	return &st, nil
}

// Restore replaces the sketcher with a checkpointed state.
func (s *localShard) Restore(st *sketch.ARAMSState) error { return s.restore(st, false) }

// restore is Restore; with adopt set, for an owning state, the sketcher
// takes st's buffer over instead of copying it (sketch.AdoptARAMSState).
func (s *localShard) restore(st *sketch.ARAMSState, adopt bool) error {
	if st == nil {
		return fmt.Errorf("engine: nil shard state")
	}
	restore := sketch.NewARAMSFromState
	if adopt {
		restore = sketch.AdoptARAMSState
	}
	a, err := restore(*st)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		a.FD().Release()
		return parallel.ErrBackendClosed
	}
	s.arams = a
	return nil
}

func (s *localShard) Ell() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.arams == nil {
		return 0
	}
	return s.arams.Ell()
}

func (s *localShard) Busy() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.busy
}

// Close hands the live sketch's blocks back to the mat vector pools and
// drops the window vectors it borrowed, which the engine then recycles —
// Snapshot and State only ever gave out copies, which their holders own
// and release on their own, and blocks adopted from an owning state are
// this shard's alone, so nothing else reads them — and
// makes every later call fail fast: Absorb, Snapshot, State, Restore and
// Certificate return parallel.ErrBackendClosed, Basis and Ell report an
// empty sketch, and no Absorb starts a fresh one.
func (s *localShard) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.arams != nil {
		s.arams.FD().Release()
		s.arams = nil
	}
	s.closed = true
	return nil
}
