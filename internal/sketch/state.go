package sketch

import (
	"fmt"
	"math"

	"arams/internal/mat"
	"arams/internal/rng"
)

// This file defines exported state snapshots for every stateful
// sketching structure, plus the constructors that rebuild a live
// structure from a snapshot. They are the boundary between the
// algorithms and internal/ckpt: the snapshot types carry plain data
// only, the binary layout lives entirely in ckpt, and restoring a
// snapshot then continuing the stream reproduces the uninterrupted
// run bit-for-bit (RNG positions included).
//
// Constructors validate their input and return errors rather than
// panicking, because snapshots may arrive from a checkpoint file that
// passed its checksum but was written by a buggy or hostile producer.

// FDState is a snapshot of a FrequentDirections sketch: its NextZero
// occupied buffer rows, the first min(NextZero, ℓ) of them float64 in
// Kept and the rest float32 in Incoming, and its counters. The free rows
// are not stored. It is the whole sketch: no factor is cached beside the
// buffer, so a sketch rebuilt from it answers every read, Basis
// included, with the bits the original would.
type FDState struct {
	Ell        int
	D          int
	NextZero   int
	Rotations  int
	Seen       int
	TotalDelta float64
	// FrobMass is the accumulated ‖A‖_F² of the summarized stream, the
	// scale of the relative certificate Σδ/‖A‖_F².
	FrobMass float64
	Kept     []float64 // min(NextZero, Ell)×D float64 rows, row-major
	Incoming []float32 // max(NextZero − Ell, 0)×D float32 rows, row-major
}

// State captures the sketch's current state.
func (fd *FrequentDirections) State() FDState { return fd.state(false) }

// state is State. With take set the state's Kept is not a copy but the
// sketch's own ℓ×d array cut to its occupied rows (capacity ℓ·d), and
// its Incoming the sketch's ℓ×d float32 block cut the same way, with
// every borrowed row gathered into its slot — a block drawn from the
// pool for the purpose when the sketch holds none — and the sketch gives
// them up: it must not be used afterwards. See ARAMS.TakeState.
func (fd *FrequentDirections) state(take bool) FDState {
	s := FDState{
		Ell:        fd.ell,
		D:          fd.d,
		NextZero:   fd.nextZero,
		Rotations:  fd.rotations,
		Seen:       fd.seen,
		TotalDelta: fd.totalDelta,
		FrobMass:   fd.frobMass,
	}
	top, low := fd.occupied()
	kept := fd.kept.Data[:top.RowsN*fd.d]
	if take {
		// The float32 block goes also when no row of it is occupied: its
		// capacity still hands it over.
		for j, row := range low {
			if !fd.owns(j) {
				copy(fd.slot(j), row)
			}
		}
		if fd.block != nil {
			s.Incoming = fd.block[:len(low)*fd.d]
		}
		s.Kept = kept
		fd.kept, fd.block, fd.rows = nil, nil, nil
		return s
	}
	s.Kept = append(make([]float64, 0, len(kept)), kept...)
	if len(low) > 0 {
		s.Incoming = make([]float32, 0, len(low)*fd.d)
		for _, row := range low {
			s.Incoming = append(s.Incoming, row...)
		}
	}
	return s
}

// newFDFromState rebuilds a sketch from a snapshot. With adopt set, a
// Kept or Incoming whose capacity is the whole ℓ×d array becomes the
// sketch's own instead of being copied into a new one. One of any other
// capacity is copied.
func newFDFromState(s FDState, adopt bool) (*FrequentDirections, error) {
	if s.Ell <= 0 || s.D <= 0 {
		return nil, fmt.Errorf("sketch: FD state has invalid dimensions ℓ=%d d=%d", s.Ell, s.D)
	}
	if s.NextZero < 0 || s.NextZero > 2*s.Ell {
		return nil, fmt.Errorf("sketch: FD state nextZero=%d out of range [0, %d]", s.NextZero, 2*s.Ell)
	}
	if k := min(s.NextZero, s.Ell); len(s.Kept) != k*s.D {
		return nil, fmt.Errorf("sketch: FD state kept length %d != %d×%d", len(s.Kept), k, s.D)
	}
	if n := max(s.NextZero-s.Ell, 0); len(s.Incoming) != n*s.D {
		return nil, fmt.Errorf("sketch: FD state incoming length %d != %d×%d", len(s.Incoming), n, s.D)
	}
	if s.Rotations < 0 || s.Seen < 0 {
		return nil, fmt.Errorf("sketch: FD state has negative counters (rotations=%d seen=%d)", s.Rotations, s.Seen)
	}
	if math.IsNaN(s.TotalDelta) || math.IsInf(s.TotalDelta, 0) || s.TotalDelta < 0 {
		return nil, fmt.Errorf("sketch: FD state has invalid total delta %v", s.TotalDelta)
	}
	if math.IsNaN(s.FrobMass) || math.IsInf(s.FrobMass, 0) || s.FrobMass < 0 {
		return nil, fmt.Errorf("sketch: FD state has invalid Frobenius mass %v", s.FrobMass)
	}
	n := s.Ell * s.D
	fd := &FrequentDirections{ell: s.Ell, d: s.D, rows: make([][]float32, 0, s.Ell)}
	if adopt && cap(s.Kept) == n {
		fd.kept = mat.FromData(s.Ell, s.D, s.Kept[:n])
	} else {
		fd.kept = mat.FromData(s.Ell, s.D, mat.GetVec(n))
		copy(fd.kept.Data, s.Kept)
	}
	if adopt && cap(s.Incoming) == n {
		fd.block = s.Incoming[:n]
	} else {
		fd.block = mat.GetVec32(n)
		copy(fd.block, s.Incoming)
	}
	for j := 0; j*s.D < len(s.Incoming); j++ {
		fd.rows = append(fd.rows, fd.slot(j))
	}
	fd.nextZero = s.NextZero
	fd.rotations = s.Rotations
	fd.seen = s.Seen
	fd.totalDelta = s.TotalDelta
	fd.frobMass = s.FrobMass
	return fd, nil
}

// Clone returns an independent deep copy of the sketch: its rows and
// the counters, which are all a sketch is. parallel.MergeSketches
// clones its inputs, and a shard backend clones its live sketch for the
// reconcile merge, because a fold compacts both operands. The copy's
// blocks come from the mat vector pools, like a new sketch's, so the
// merge that folds the clone and then releases it hands them to the next
// clone of the same shape. Only the occupied rows are copied, a borrowed
// float32 row into a slot of the copy's own block: a clone borrows
// nothing.
func (fd *FrequentDirections) Clone() *FrequentDirections {
	c := NewFrequentDirections(fd.ell, fd.d, Options{})
	top, low := fd.occupied()
	copy(c.kept.Data, top.Data[:top.RowsN*fd.d])
	for j, row := range low {
		r := c.slot(j)
		copy(r, row)
		c.rows = append(c.rows, r)
	}
	c.nextZero = fd.nextZero
	c.rotations = fd.rotations
	c.seen = fd.seen
	c.totalDelta = fd.totalDelta
	c.frobMass = fd.frobMass
	return c
}

// ARAMSState is a snapshot of a streaming ARAMS sketcher: the
// configuration, the batch-sampler RNG position, the sketch, and, when
// Cfg.RankAdaptive, Algorithm 2's bookkeeping. A fixed-rank sketcher
// keeps no bookkeeping and leaves those fields zero.
type ARAMSState struct {
	Cfg Config
	D   int
	RNG rng.State
	FD  FDState

	ProbeRNG    rng.State
	IncreaseEll bool
	RowsLeft    int // -1 when the stream length is unknown
	Grows       int
}

// State captures the sketcher's current state.
func (a *ARAMS) State() ARAMSState { return a.state(false) }

// TakeState is State for an owner that is done with the sketcher, such
// as a hibernating shard: instead of copying the sketch's two ℓ×d
// blocks it moves them into the state, each cut to its occupied rows
// (capacity ℓ·d). The float32 rows it borrowed (ProcessBatchBorrowing)
// are gathered into the float32 block, one drawn from the mat vector
// pool when the sketch gave its own back, so the state borrows nothing.
// The sketcher must not be used afterwards. Once nothing reads the
// state, its holder may hand Kept to mat.PutVec and Incoming to
// mat.PutVec32, or restore from it with AdoptARAMSState.
func (a *ARAMS) TakeState() ARAMSState { return a.state(true) }

func (a *ARAMS) state(take bool) ARAMSState {
	s := ARAMSState{
		Cfg:         a.cfg,
		D:           a.fd.d,
		RNG:         a.g.State(),
		FD:          a.fd.state(take),
		IncreaseEll: a.increaseEll,
		RowsLeft:    a.rowsLeft,
		Grows:       a.grows,
	}
	if a.probe != nil {
		s.ProbeRNG = a.probe.State()
	}
	return s
}

// NewARAMSFromState rebuilds a streaming sketcher from a snapshot.
func NewARAMSFromState(s ARAMSState) (*ARAMS, error) { return newARAMSFromState(s, false) }

// AdoptARAMSState is NewARAMSFromState for a state nothing else holds:
// one TakeState returned, or one a checkpoint decoder built. An FD Kept
// or Incoming whose capacity is the whole ℓ×d array becomes the new
// sketch's own instead of being copied: the caller hands it over and
// must neither read nor write it afterwards. One of any other capacity
// is copied.
func AdoptARAMSState(s ARAMSState) (*ARAMS, error) { return newARAMSFromState(s, true) }

func newARAMSFromState(s ARAMSState, adopt bool) (*ARAMS, error) {
	if s.D <= 0 {
		return nil, fmt.Errorf("sketch: ARAMS state has d=%d", s.D)
	}
	if s.Cfg.Ell0 <= 0 {
		return nil, fmt.Errorf("sketch: ARAMS state has Ell0=%d", s.Cfg.Ell0)
	}
	if !s.RNG.Valid() {
		return nil, fmt.Errorf("sketch: ARAMS state has invalid RNG state")
	}
	fd, err := newFDFromState(s.FD, adopt)
	if err != nil {
		return nil, err
	}
	a := &ARAMS{cfg: s.Cfg, g: rng.FromState(s.RNG), fd: fd}
	if s.Cfg.RankAdaptive {
		switch {
		case s.Cfg.Nu <= 0:
			return nil, fmt.Errorf("sketch: rank-adaptive state has nu=%d", s.Cfg.Nu)
		case !(s.Cfg.Eps > 0) || math.IsInf(s.Cfg.Eps, 0):
			return nil, fmt.Errorf("sketch: rank-adaptive state has eps=%v", s.Cfg.Eps)
		case !s.ProbeRNG.Valid():
			return nil, fmt.Errorf("sketch: rank-adaptive state has invalid RNG state")
		case s.RowsLeft < -1 || s.Grows < 0:
			return nil, fmt.Errorf("sketch: rank-adaptive state has invalid counters (rowsLeft=%d grows=%d)", s.RowsLeft, s.Grows)
		}
		a.probe = rng.FromState(s.ProbeRNG)
		a.increaseEll, a.rowsLeft, a.grows = s.IncreaseEll, s.RowsLeft, s.Grows
	}
	if fd.Dim() != s.D {
		return nil, fmt.Errorf("sketch: ARAMS state dimension %d != inner sketch dimension %d", s.D, fd.Dim())
	}
	return a, nil
}

// Finite reports whether every occupied buffer value is finite — the
// validation a remote merge runs on each fetched sketch before folding
// it into the global summary.
func (fd *FrequentDirections) Finite() bool {
	top, low := fd.occupied()
	for _, v := range top.Data[:top.RowsN*fd.d] {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	for _, row := range low {
		for _, v := range row {
			if !(v <= math.MaxFloat32 && v >= -math.MaxFloat32) {
				return false
			}
		}
	}
	return true
}
