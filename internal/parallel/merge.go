package parallel

import (
	"strconv"
	"time"

	"arams/internal/audit"
	"arams/internal/obs"
	"arams/internal/sketch"
)

// The merge core. FD sketches are mergeable summaries (Ghashami et
// al.), which is the one argument behind every way this package
// combines them — Run's merge phase, MergeSketches over caller-owned
// sketches, MergeRemote over fetched ones — so there is one code path:
// mergeNodes folds a slice of sketches in place, as a tree of legs
// (treeMerge → runLeg) or as one serial chain (serialMerge), and every
// merge of two sketches anywhere in the package happens in foldInto.
// A fold of in-process sketches cannot fail; the one step that can — a
// remote fetch — is handled before the fold, in remote.go.

// Merge observability: every tree-merge leg is counted and timed;
// MergeSketches/MergeRemote are the engine's shard reconciliation
// primitives, so their call count and rotation volume are tracked
// separately from the batch Run path.
var (
	obsMergeLegs          = obs.Default().Counter("arams_parallel_merge_legs_total")
	obsLegSeconds         = obs.Default().Histogram("arams_parallel_merge_leg_seconds")
	obsReconcilesTotal    = obs.Default().Counter("arams_parallel_reconciles_total")
	obsReconcileRotations = obs.Default().Counter("arams_parallel_reconcile_rotations_total")
)

// mergeEnv carries the per-merge context the core needs for
// accounting. trace is the merge span's context; every round and leg
// span parents under it.
type mergeEnv struct {
	opts  *runOptions
	stats *Stats
	trace obs.SpanContext
}

// mergeNodes folds fds into one sketch with the chosen strategy,
// consuming them: the result is fds[0] with every other sketch merged
// in and released. It fills the merge accounting in env.stats
// (MergeRounds, Rounds) and returns the merge critical path: the sum over
// tree rounds of each round's slowest leg, or the whole chain for the
// serial fold.
func mergeNodes(fds []*sketch.FrequentDirections, strategy MergeStrategy, env *mergeEnv) (*sketch.FrequentDirections, time.Duration) {
	switch strategy {
	case TreeMerge:
		return treeMerge(fds, env)
	case SerialMerge:
		env.stats.MergeRounds = len(fds) - 1
		return serialMerge(fds, env.trace)
	default:
		panic("parallel: unknown merge strategy")
	}
}

// treeMerge reduces sketches in groups of the run's arity; groups
// within one round run concurrently, mirroring simultaneous MPI
// exchanges across ranks, while the arity−1 merges inside a group are
// sequential (one leg).
func treeMerge(fds []*sketch.FrequentDirections, env *mergeEnv) (*sketch.FrequentDirections, time.Duration) {
	arity := env.opts.arity
	var critical time.Duration
	for len(fds) > 1 {
		round := env.stats.MergeRounds
		env.stats.MergeRounds++
		spRound := obs.StartSpanIn(env.trace, "merge_round",
			obs.L("round", strconv.Itoa(round)))
		roundCtx := spRound.Context()
		groups := (len(fds) + arity - 1) / arity
		next := make([]*sketch.FrequentDirections, groups)
		// Only the last group can be a singleton; it passes through to
		// the next round and is not a leg.
		legs := groups
		if len(fds)%arity == 1 {
			legs--
			next[legs] = fds[len(fds)-1]
		}
		reports := make([]legReport, legs)
		forEach(legs, env.opts.sequential, func(g int) {
			group := fds[g*arity : min((g+1)*arity, len(fds))]
			reports[g] = runLeg(roundCtx, round, g, group)
			next[g] = group[0]
		})
		spRound.End()
		rs := RoundStats{Legs: legs}
		for _, rep := range reports {
			rs.ShrinkMass += rep.shrink
			if rep.duration > rs.Slowest {
				rs.Slowest = rep.duration
			}
		}
		env.stats.Rounds = append(env.stats.Rounds, rs)
		critical += rs.Slowest
		fds = next
	}
	return fds[0], critical
}

// legReport is one leg's accounting, reduced into RoundStats after the
// round's barrier: its wall time and the shrinkage Σδ the fold added to
// the surviving sketch (its certificate contribution).
type legReport struct {
	duration time.Duration
	shrink   float64
}

// runLeg folds group[1:] into group[0] under a merge_leg span of the
// round's span and returns the leg's accounting.
func runLeg(parent obs.SpanContext, round, gIdx int, group []*sketch.FrequentDirections) legReport {
	before := deltaOf(group)
	sp := obs.StartSpanIn(parent, "merge_leg",
		obs.L("round", strconv.Itoa(round)),
		obs.L("group", strconv.Itoa(gIdx)),
		obs.L("inputs", strconv.Itoa(len(group))))
	acc := foldInto(group[0], group[1:])
	rep := legReport{shrink: acc.Delta() - before}
	rep.duration = sp.End()
	obsMergeLegs.Inc()
	obsLegSeconds.Observe(rep.duration.Seconds())
	return rep
}

// serialMerge folds every sketch into the first, one at a time, under a
// merge_serial_fold span; every merge is on the critical path.
func serialMerge(fds []*sketch.FrequentDirections, trace obs.SpanContext) (*sketch.FrequentDirections, time.Duration) {
	sp := obs.StartSpanIn(trace, "merge_serial_fold",
		obs.L("nodes", strconv.Itoa(len(fds))))
	defer sp.End()
	t0 := time.Now()
	acc := foldInto(fds[0], fds[1:])
	return acc, time.Since(t0)
}

// foldInto merges rest into acc in order, compacting after each merge
// so the accumulator re-enters the next one at ℓ rows, and returns acc.
// Each operand is dead once its rows are stacked and rotated into acc,
// so its 2ℓ×d buffer goes straight back to the mat vector pool: every
// caller owns what it folds (MergeSketches folds clones, MergeRemote
// what it fetched, Run what its Sketcher built).
func foldInto(acc *sketch.FrequentDirections, rest []*sketch.FrequentDirections) *sketch.FrequentDirections {
	for _, fd := range rest {
		acc.Merge(fd)
		acc.Compact()
		fd.Release()
	}
	return acc
}

// deltaOf sums the sketches' certificate mass Σδ — the baseline a
// fold's shrinkage is reported against.
func deltaOf(fds []*sketch.FrequentDirections) float64 {
	sum := 0.0
	for _, fd := range fds {
		sum += fd.Delta()
	}
	return sum
}

// MergeSketches combines already-built sketches into one global summary
// using the chosen strategy (binary tree for TreeMerge, a linear fold
// for SerialMerge) without mutating the inputs: every input is cloned
// before the first fold (merging compacts both operands), so live shard
// sketches can keep ingesting while a merge runs on a snapshot of their
// state.
//
// Mergeability (Ghashami et al.) makes the error-bound certificate
// compose: the merged sketch's Delta() is the sum of the inputs'
// shrinkage masses plus whatever the merge rotations shrink, so
// audit.FromSketch on the result certifies ‖AᵀA − BᵀB‖₂ ≤ Σδ over the
// concatenation of every input stream.
//
// It returns the merged sketch and the merge accounting (MergeRounds,
// Rounds, MergeRotations, MergeShrinkMass, Certificate, CriticalPath —
// the sketch-phase fields stay zero because no shard sketching happens
// here). Passing no sketches returns (nil, Stats{}); a single sketch is
// cloned, compacted, and returned with zero merge work.
func MergeSketches(fds []*sketch.FrequentDirections, strategy MergeStrategy) (*sketch.FrequentDirections, Stats) {
	clones := make([]*sketch.FrequentDirections, len(fds))
	for i, fd := range fds {
		clones[i] = fd.Clone()
	}
	return mergeOwned(clones, strategy, obs.SpanContext{})
}

// mergeOwned is MergeSketches over sketches the caller hands over: it
// folds them in place (fds[0] becomes the result, the rest are released
// to the mat vector pool as they are folded). Its spans (merge_sketches
// → merge_round → merge_leg) parent into the given trace; the zero
// SpanContext roots a standalone one.
func mergeOwned(fds []*sketch.FrequentDirections, strategy MergeStrategy, parent obs.SpanContext) (*sketch.FrequentDirections, Stats) {
	stats := Stats{Workers: len(fds)}
	if len(fds) == 0 {
		return nil, stats
	}
	obsReconcilesTotal.Inc()
	start := time.Now()
	sp := obs.StartSpanIn(parent, "merge_sketches",
		obs.L("inputs", strconv.Itoa(len(fds))),
		obs.L("strategy", strategy.String()))
	defer sp.End()

	rotBefore := 0
	for _, fd := range fds {
		rotBefore += fd.Rotations()
	}
	deltaBefore := deltaOf(fds)
	env := &mergeEnv{opts: newRunOptions(nil), stats: &stats, trace: sp.Context()}
	global, crit := mergeNodes(fds, strategy, env)
	global.Compact()
	stats.Certificate = audit.FromSketch(global)
	stats.Total = time.Since(start)
	if len(fds) == 1 {
		return global, stats // compacted only: no merge work to bill
	}
	stats.MergeRotations = global.Rotations() - rotBefore
	stats.MergeShrinkMass = global.Delta() - deltaBefore
	stats.CriticalPath = crit
	stats.MergeTime = stats.Total
	obsReconcileRotations.Add(float64(stats.MergeRotations))
	return global, stats
}
