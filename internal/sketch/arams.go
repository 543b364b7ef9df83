package sketch

import (
	"arams/internal/mat"
	"arams/internal/obs"
	"arams/internal/rng"
)

// obsRankAdapts counts heuristic-triggered rank increases (Alg. 2
// line 9: estimated error above ε), as opposed to merge-driven Grow
// calls, which only arams_sketch_rank_grow_events_total sees.
var obsRankAdapts = obs.Default().Counter("arams_sketch_rank_adaptations_total")

// Config parameterizes the ARAMS algorithm (Algorithm 3): Accelerated
// Rank-Adaptive Matrix Sketching = priority sampling chained into
// rank-adaptive Frequent Directions.
type Config struct {
	// Ell0 is the initial number of retained directions.
	Ell0 int
	// Nu is the probe count for the error heuristic and the rank
	// increment (the paper's ν).
	Nu int
	// Eps is the user-specified relative reconstruction-error target
	// (the paper's ε). The rank grows until the estimated error of
	// recent data falls below it.
	Eps float64
	// Beta is the priority-sampling keep fraction (the paper's β,
	// e.g. 0.8 keeps 80% of rows). Beta >= 1 disables sampling.
	Beta float64
	// RankAdaptive grows ℓ by Algorithm 2, by Nu whenever the probe
	// puts the error of recent rows above Eps. When false ℓ stays at
	// Ell0, the "user-specified rank" baselines of Fig. 1.
	RankAdaptive bool
	// Seed feeds the sampler and probe RNG.
	Seed uint64
}

// ARAMS is the streaming form of Algorithm 3: batches pass through a
// per-batch priority sampler and into one Frequent Directions sketch.
//
// With cfg.RankAdaptive set, the sketch's ℓ grows by Algorithm 2 so
// that the estimated relative reconstruction error of the most recent
// data stays below ε — the practitioner specifies a target error
// instead of a rank. At each rotation, the probe heuristic (Algorithm
// 1) estimates the reconstruction error of the last ℓ appended rows
// against the right singular vectors the rotation has just computed,
// so the heuristic adds no extra SVD. It reads both where they lie: the
// rows are the sketch's own float32 rows, exactly the ℓ appended since
// the last rotation (fast FD's 2ℓ buffer holds them as its lower half),
// and the vectors are the kept block, which holds them unscaled until
// the shrink. No copy of either is made. If the error exceeds ε and
// enough rows remain in the stream (rowsLeft > ℓ+ν, the paper's
// canRankAdapt guard, which prevents growing right before the data
// runs out and leaving zero rows in the sketch), ℓ increases by ν at
// the start of the next cycle.
type ARAMS struct {
	cfg Config
	g   *rng.RNG
	fd  *FrequentDirections

	// Algorithm 2's bookkeeping, used only when cfg.RankAdaptive: the
	// probe RNG, the growth the last probe asked for, the rows the
	// stream has left (-1 if unknown) and the growths so far.
	probe       *rng.RNG
	increaseEll bool
	rowsLeft    int
	grows       int

	// norms holds ‖row‖² of the batch in flight, and ps samples it when
	// β < 1: scratch, reset for every batch, so a batch allocates nothing.
	norms []float64
	ps    *PrioritySampler
}

// NewARAMS creates a streaming ARAMS sketcher for d-dimensional rows.
// totalRows is the expected stream length for the rank-adaptation
// guard; pass <= 0 if unknown, and the guard always allows growth.
func NewARAMS(cfg Config, d, totalRows int) *ARAMS {
	if cfg.Ell0 <= 0 {
		panic("sketch: ARAMS needs Ell0 > 0")
	}
	if cfg.Nu <= 0 {
		cfg.Nu = 10
	}
	if cfg.Beta <= 0 {
		cfg.Beta = 1
	}
	a := &ARAMS{cfg: cfg, g: rng.New(cfg.Seed), fd: NewFrequentDirections(cfg.Ell0, d, Options{})}
	if cfg.RankAdaptive {
		if cfg.Eps <= 0 {
			panic("sketch: rank-adaptive ARAMS needs Eps > 0")
		}
		// The sampler passes ~β of the rows through to the sketch.
		if totalRows > 0 && cfg.Beta < 1 {
			totalRows = int(float64(totalRows) * cfg.Beta)
		}
		a.rowsLeft = totalRows
		if totalRows <= 0 {
			a.rowsLeft = -1
		}
		a.probe = a.g.Split()
	}
	return a
}

// BatchStats summarizes one ProcessBatch call for the audit layer:
// what the priority sampler kept of the offered rows (counts and
// squared-Frobenius mass) and how the sketch rank and certified
// shrinkage Σδ moved while absorbing them. Callers that don't audit
// simply discard the return value.
type BatchStats struct {
	Rows       int     // rows offered to the batch
	Kept       int     // rows the sampler passed to the sketch
	TotalMass  float64 // Σ‖row‖² offered
	KeptMass   float64 // Σ‖row‖² kept
	EllBefore  int
	EllAfter   int
	DeltaAdded float64 // shrinkage mass Σδ this batch added to the certificate
}

// AcceptRate is the fraction of the offered batch energy the sampler
// kept (1 for an empty or unsampled batch) — the signal the audit
// layer's acceptance drift detector watches.
func (bs BatchStats) AcceptRate() float64 {
	if bs.TotalMass <= 0 {
		return 1
	}
	return bs.KeptMass / bs.TotalMass
}

// ProcessBatch runs one batch through the sampler and into the sketch,
// returning the batch's audit accounting.
func (a *ARAMS) ProcessBatch(x *mat.Matrix) BatchStats { return a.process(x, nil) }

// ProcessBatchBorrowing is ProcessBatch for a caller that holds each row
// of x rounded to float32 already: x32[i] must be mat.Narrow of row i.
// The sketch then rounds nothing itself. It keeps x32[i] of a row it
// appends after its first ℓ, not a copy, as a buffer row until its next
// rotation (until Rotations rises past its count after this call), and
// the caller must leave those vectors unchanged until then. The engine
// passes its window vectors.
func (a *ARAMS) ProcessBatchBorrowing(x *mat.Matrix, x32 [][]float32) BatchStats {
	if len(x32) != x.RowsN {
		panic("sketch: ARAMS float32 rows do not match the batch")
	}
	return a.process(x, x32)
}

// process is ProcessBatch, borrowing x32's rows when it is not nil.
func (a *ARAMS) process(x *mat.Matrix, x32 [][]float32) BatchStats {
	if x.ColsN != a.fd.d {
		panic("sketch: ARAMS batch dimension mismatch")
	}
	bs := BatchStats{Rows: x.RowsN, EllBefore: a.Ell()}
	// Each row's squared norm is a d-long dependent sum and four
	// accounts want it (offered mass, kept mass, the sketch's stream
	// mass, the sampler's priority weight): form it once.
	a.norms = a.norms[:0]
	for i := 0; i < x.RowsN; i++ {
		n2 := mat.Norm2Sq(x.Row(i))
		a.norms = append(a.norms, n2)
		bs.TotalMass += n2
	}
	row32 := func(i int) []float32 {
		if x32 == nil {
			return nil
		}
		return x32[i]
	}
	deltaBefore := a.fd.Delta()
	if a.cfg.Beta < 1 {
		// The sampler holds views into x and the sketch copies each
		// appended row into its buffer, so the kept rows go from the
		// batch to the sketch without an intermediate copy. An entry's
		// index is its row's position in x.
		if a.ps == nil {
			a.ps = NewPrioritySampler(1, a.g)
		}
		a.ps.sample(x, a.cfg.Beta, a.norms)
		for _, e := range a.ps.selected() {
			bs.KeptMass += a.norms[e.index]
			bs.Kept++
			a.appendNorm(e.row, row32(e.index), a.norms[e.index])
		}
		a.ps.drop()
	} else {
		bs.KeptMass = bs.TotalMass
		bs.Kept = x.RowsN
		for i := 0; i < x.RowsN; i++ {
			a.appendNorm(x.Row(i), row32(i), a.norms[i])
		}
	}
	bs.EllAfter = a.Ell()
	bs.DeltaAdded = a.fd.Delta() - deltaBefore
	return bs
}

// appendNorm adds one row, whose squared norm the caller holds, to the
// sketch; row32, when not nil, is the row's float32 copy for the sketch
// to borrow. With rank adaptation on it runs Algorithm 2's bookkeeping
// around the fast-FD buffer.
func (a *ARAMS) appendNorm(row []float64, row32 []float32, n2 float64) {
	fd := a.fd
	if !a.cfg.RankAdaptive {
		fd.appendNorm(row, row32, n2)
		return
	}
	if row32 != nil {
		fd.lend(row32)
	}
	if fd.nextZero == 2*fd.ell {
		canAdapt := a.canRankAdapt()
		if a.increaseEll && canAdapt {
			// Grow ℓ by ν; the buffer gains 2ν rows so this append
			// proceeds without a rotation, exactly line 10–12 of Alg. 2.
			fd.Grow(a.cfg.Nu)
			a.increaseEll = false
		} else if !canAdapt {
			fd.rotate()
		} else {
			// Between the two halves of the rotation, kept holds the
			// unscaled Vᵀ and the float32 rows are the last ℓ appended,
			// oldest first: Alg. 2's test, read where it lies.
			sigma := fd.decompose()
			_, last := fd.occupied()
			if relResidual(mat.New(0, fd.d), last, fd.kept, a.cfg.Nu, a.probe) > a.cfg.Eps {
				a.increaseEll = true
				a.grows++
				obsRankAdapts.Inc()
			}
			fd.shrink(sigma)
		}
	}
	fd.store(row, row32, n2)
	if a.rowsLeft > 0 {
		a.rowsLeft--
	}
}

// canRankAdapt mirrors line 8 of Algorithm 2: growth is permitted only
// when more than ℓ+ν rows remain, so the enlarged buffer can still be
// filled before the stream ends.
func (a *ARAMS) canRankAdapt() bool {
	if a.rowsLeft < 0 {
		return true
	}
	return a.rowsLeft > a.fd.Ell()+a.cfg.Nu
}

// Ell returns the current number of retained directions.
func (a *ARAMS) Ell() int { return a.fd.Ell() }

// Sketch returns the current sketch matrix.
func (a *ARAMS) Sketch() *mat.Matrix { return a.fd.Sketch() }

// Basis returns the top-k right singular vectors of the sketch.
func (a *ARAMS) Basis(k int) *mat.Matrix { return a.fd.Basis(k) }

// FD returns the underlying Frequent Directions sketch (for merging).
func (a *ARAMS) FD() *FrequentDirections { return a.fd }
