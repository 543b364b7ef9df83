// Package parallel implements the paper's parallelization scheme for
// Frequent Directions sketching (§IV-C): each worker sketches a shard
// of the data independently, and the per-shard sketches — which are
// mergeable summaries — are combined either by the proposed tree merge
// (logarithmic number of merge rotations, merges within a level running
// concurrently) or by the baseline serial merge (linear chain of
// rotations through a single accumulator), the comparison behind
// Figs. 2 and 3.
//
// Workers are goroutines; the original system used MPI ranks on a
// cluster, but the merge topology, rotation counts, and communication
// structure are identical, which is what the strong-scaling shape
// depends on.
package parallel

import (
	"fmt"
	"sync"
	"time"

	"arams/internal/audit"
	"arams/internal/mat"
	"arams/internal/obs"
	"arams/internal/sketch"
)

// Merge-phase observability: Run records "sketch" and "merge" stage
// spans (plus one "merge_round" span per tree level) and bumps these
// totals.
var (
	obsRunsTotal        = obs.Default().Counter("arams_parallel_runs_total")
	obsLocalRotations   = obs.Default().Counter("arams_parallel_local_rotations_total")
	obsMergeRotations   = obs.Default().Counter("arams_parallel_merge_rotations_total")
	obsMergeRoundsTotal = obs.Default().Counter("arams_parallel_merge_rounds_total")
	obsWorkersGauge     = obs.Default().Gauge("arams_parallel_workers")
)

// MergeStrategy selects how per-shard sketches are combined.
type MergeStrategy int

const (
	// TreeMerge combines sketches pairwise in rounds; each round halves
	// the sketch count and its merges run concurrently.
	TreeMerge MergeStrategy = iota
	// SerialMerge folds every sketch into a single accumulator one at a
	// time — the baseline whose scaling plateaus in Fig. 2.
	SerialMerge
)

// String names the strategy for tables.
func (s MergeStrategy) String() string {
	switch s {
	case TreeMerge:
		return "tree-merge"
	case SerialMerge:
		return "serial-merge"
	default:
		return fmt.Sprintf("MergeStrategy(%d)", int(s))
	}
}

// RoundStats is one tree level's merge-leg accounting. A leg is a
// group fold of two or more sketches; pass-through singletons are not
// legs.
type RoundStats struct {
	Legs int
	// Slowest is the round's slowest leg — its critical-path term.
	Slowest time.Duration
	// ShrinkMass is the shrinkage Σδ this round's legs added to the
	// surviving sketches — the round's contribution to the error-bound
	// certificate. Summing it over rounds (plus the per-shard sketch
	// shrinkage) reproduces the final certificate, which is how the
	// property tests pin certificate composition across merge legs.
	ShrinkMass float64
}

// Stats reports the work performed by a parallel sketch run.
type Stats struct {
	Workers        int
	LocalRotations int           // SVD rotations during per-shard sketching
	MergeRotations int           // SVD rotations during merging
	MergeRounds    int           // tree levels (1 chain for serial)
	SketchTime     time.Duration // wall time of the shard-sketch phase
	MergeTime      time.Duration // wall time of the merge phase
	Total          time.Duration
	// Rounds is the per-tree-level leg accounting (nil for serial
	// merge).
	Rounds []RoundStats
	// LocalShrinkMass is the shrinkage Σδ accumulated during the
	// per-shard sketch phase; MergeShrinkMass is the additional
	// shrinkage the merge rotations added.
	LocalShrinkMass float64
	MergeShrinkMass float64
	// Certificate is the run's final error-bound certificate, cut from
	// the merged global sketch: ‖AᵀA − BᵀB‖₂ ≤ Certificate.CovBound()
	// over the concatenation of every shard, whatever merge order and
	// arity the run took (mergeability makes the bound compose).
	Certificate audit.Certificate
	// CriticalPath is the strong-scaling runtime on ideal hardware: the
	// slowest single worker's sketch time, plus — for the tree — the
	// sum over merge levels of each level's slowest merge, or — for the
	// serial fold — the sum of every merge. Each contribution is
	// measured, not modeled, so the value is meaningful even when the
	// host has fewer cores than workers (goroutines then time-slice,
	// but each unit of work is timed individually).
	CriticalPath time.Duration
}

// Sketcher builds a fresh sketch for a shard; it lets callers choose
// plain FD, rank-adaptive FD, or full ARAMS per worker. Run owns what it
// returns: every sketch but the one Run returns is released to the mat
// vector pool once folded, so a Sketcher must not hand out a sketch
// anything else still reads.
type Sketcher func(shard *mat.Matrix) *sketch.FrequentDirections

// FDSketcher returns a Sketcher that runs plain fast Frequent
// Directions with the given ℓ.
func FDSketcher(ell int, opts sketch.Options) Sketcher {
	return func(shard *mat.Matrix) *sketch.FrequentDirections {
		fd := sketch.NewFrequentDirections(ell, shard.ColsN, opts)
		fd.AppendMatrix(shard)
		return fd
	}
}

// Option configures a Run call.
type Option func(*runOptions)

// WithArity sets the tree's branching factor (default 2): each tree
// level groups a sketches and folds each group with a−1 sequential
// merges, groups running concurrently — the general branching factor of
// the appendix's mergeability proof. Arity is ignored for SerialMerge.
func WithArity(a int) Option {
	if a < 2 {
		panic("parallel: tree arity must be >= 2")
	}
	return func(o *runOptions) { o.arity = a }
}

// Sequential runs the same sketch-and-merge computation strictly one
// unit of work at a time, so every shard sketch and every merge leg is
// timed in isolation and Stats.CriticalPath is the runtime the
// computation would have on hardware with one core per worker. On a
// host with fewer cores than workers the default goroutines time-slice,
// so each one's timing includes the time it waited for a core; a
// sequential run is the measurement to use for strong-scaling studies
// there (Total is then the summed work). The sketch is bit-identical
// either way.
func Sequential() Option {
	return func(o *runOptions) { o.sequential = true }
}

type runOptions struct {
	arity      int
	sequential bool
}

func newRunOptions(options []Option) *runOptions {
	o := &runOptions{arity: 2}
	for _, fn := range options {
		fn(o)
	}
	return o
}

// Run sketches every shard (one goroutine per shard) and merges the
// per-shard sketches with the chosen strategy. It returns the global
// sketch and run statistics. Two options shape the run: WithArity sets
// the tree's branching factor (default 2) and Sequential executes every
// unit of work one after another for strong-scaling measurement. Every
// run roots its own parallel_run trace on /tracez.
func Run(shards []*mat.Matrix, mk Sketcher, strategy MergeStrategy, options ...Option) (*sketch.FrequentDirections, Stats) {
	if len(shards) == 0 {
		panic("parallel: no shards")
	}
	opts := newRunOptions(options)
	if allShardsEmpty(shards) {
		return emptyRun(shards, mk)
	}
	stats := Stats{Workers: len(shards)}
	obsRunsTotal.Inc()
	obsWorkersGauge.SetInt(len(shards))
	start := time.Now()

	spRun := obs.StartTrace("parallel_run",
		obs.L("workers", fmt.Sprint(len(shards))),
		obs.L("strategy", strategy.String()))
	defer spRun.End()

	spSketch := spRun.StartChild("sketch")
	fds := make([]*sketch.FrequentDirections, len(shards))
	localTimes := make([]time.Duration, len(shards))
	forEach(len(shards), opts.sequential, func(i int) {
		t0 := time.Now()
		fds[i] = mk(shards[i])
		fds[i].Compact()
		localTimes[i] = time.Since(t0)
	})
	stats.SketchTime = spSketch.End()
	var slowestLocal time.Duration
	for i, fd := range fds {
		stats.LocalRotations += fd.Rotations()
		stats.LocalShrinkMass += fd.Delta()
		if localTimes[i] > slowestLocal {
			slowestLocal = localTimes[i]
		}
	}
	obsLocalRotations.Add(float64(stats.LocalRotations))

	spMerge := spRun.StartChild("merge")
	env := &mergeEnv{opts: opts, stats: &stats, trace: spMerge.Context()}
	global, mergeCrit := mergeNodes(fds, strategy, env)
	stats.MergeTime = spMerge.End()
	stats.MergeRotations = global.Rotations() - stats.LocalRotations
	stats.MergeShrinkMass = global.Delta() - stats.LocalShrinkMass
	stats.Certificate = audit.FromSketch(global)
	obsMergeRotations.Add(float64(stats.MergeRotations))
	obsMergeRoundsTotal.Add(float64(stats.MergeRounds))
	stats.CriticalPath = slowestLocal + mergeCrit
	stats.Total = time.Since(start)
	return global, stats
}

// forEach calls fn(0) … fn(n-1), each on its own goroutine, and waits
// for all of them — or, when sequential, in index order on the caller's
// goroutine, so each call can be timed in isolation.
func forEach(n int, sequential bool, fn func(i int)) {
	if sequential {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// allShardsEmpty reports whether no shard carries any rows — the
// degenerate input the run entry points short-circuit.
func allShardsEmpty(shards []*mat.Matrix) bool {
	for _, s := range shards {
		if s.RowsN > 0 {
			return false
		}
	}
	return true
}

// emptyRun is the deterministic short-circuit for all-empty input:
// build one sketch from the (empty) first shard, skip the worker
// goroutines and every merge, and report zero-duration stats. Without
// this, a 0-row dataset took the full fan-out/merge machinery for no
// work, and a 0×0 input panicked deep inside a worker goroutine instead
// of in the caller's stack (NewFrequentDirections still rejects d = 0,
// but now synchronously, with a clear message).
func emptyRun(shards []*mat.Matrix, mk Sketcher) (*sketch.FrequentDirections, Stats) {
	fd := mk(shards[0])
	fd.Compact()
	return fd, Stats{Workers: len(shards)}
}

// SplitRows partitions x into p contiguous row blocks of near-equal
// size (views, no copy). p is clamped to the number of rows; a 0-row
// input yields a single empty shard, which Run short-circuits.
func SplitRows(x *mat.Matrix, p int) []*mat.Matrix {
	if p < 1 {
		panic("parallel: SplitRows needs p >= 1")
	}
	if p > x.RowsN {
		p = x.RowsN
	}
	if p == 0 {
		return []*mat.Matrix{x}
	}
	out := make([]*mat.Matrix, 0, p)
	chunk := x.RowsN / p
	extra := x.RowsN % p
	row := 0
	for i := 0; i < p; i++ {
		sz := chunk
		if i < extra {
			sz++
		}
		out = append(out, x.Rows(row, row+sz))
		row += sz
	}
	return out
}
