package parallel

import (
	"strconv"
	"time"

	"arams/internal/audit"
	"arams/internal/mat"
	"arams/internal/obs"
	"arams/internal/sketch"
)

// The merge core. FD sketches are mergeable summaries (Ghashami et
// al.), which is the one argument behind every way this package
// combines them — Run's merge phase, MergeSketches over caller-owned
// sketches, MergeRemote over fetched ones — so there is one code path:
// mergeNodes folds a slice of nodes in place, as a tree of legs
// (treeMerge → runLeg) or as one serial chain (serialMerge), and every
// merge of two sketches anywhere in the package happens in foldInto.

// Reconcile-phase observability: MergeSketches/MergeRemote are the
// engine's shard reconciliation primitives, so their call count and
// rotation volume are tracked separately from the batch Run path.
var (
	obsReconcilesTotal    = obs.Default().Counter("arams_parallel_reconciles_total")
	obsReconcileRotations = obs.Default().Counter("arams_parallel_reconcile_rotations_total")
)

// mergeNode is one operand of the merge: a sketch plus the indices of
// the original inputs it summarizes, kept so a lost leg can be
// recomputed from its source data.
type mergeNode struct {
	fd     *sketch.FrequentDirections
	shards []int
}

// mergeEnv carries the per-merge context the core needs for recovery
// and accounting. shards and mk are the recovery source (nil when the
// inputs are already-built sketches, whose legs run unguarded and so
// never need one). trace is the merge span's context; every round and
// leg span parents under it.
type mergeEnv struct {
	shards []*mat.Matrix
	mk     Sketcher
	opts   *runOptions
	stats  *Stats
	trace  obs.SpanContext
}

// mergeNodes folds nodes into one sketch with the chosen strategy,
// consuming them: the result is nodes[0]'s sketch (or a recovered
// replacement) with every other node merged in. It fills the merge
// accounting in env.stats (MergeRounds, Rounds, leg totals) and returns
// the merge critical path: the sum over tree rounds of each round's
// slowest leg, or the whole chain for the serial fold.
func mergeNodes(nodes []*mergeNode, strategy MergeStrategy, env *mergeEnv) (*sketch.FrequentDirections, time.Duration) {
	switch strategy {
	case TreeMerge:
		return treeMerge(nodes, env)
	case SerialMerge:
		env.stats.MergeRounds = len(nodes) - 1
		return serialMerge(nodes, env.trace)
	default:
		panic("parallel: unknown merge strategy")
	}
}

// treeMerge reduces merge nodes in groups of the run's arity; groups
// within one round run concurrently, mirroring simultaneous MPI
// exchanges across ranks, while the arity−1 merges inside a group are
// sequential (one leg). Legs run through runLeg, which adds retry/
// timeout/recovery semantics when the run is configured with
// WithFaults or WithRetry; when too many legs are lost, the remaining
// nodes are folded serially with no further fault exposure.
func treeMerge(nodes []*mergeNode, env *mergeEnv) (*sketch.FrequentDirections, time.Duration) {
	arity := env.opts.arity
	var critical time.Duration
	for len(nodes) > 1 {
		round := env.stats.MergeRounds
		env.stats.MergeRounds++
		if env.stats.Resketches > env.opts.retry.MaxFailedLegs {
			// Too many lost legs: degrade to one serial fold of the
			// surviving sketches — slower, but with no concurrent legs
			// left to lose.
			env.stats.SerialFallback = true
			obsSerialFallbacks.Inc()
			audit.Default().Record(audit.KindSerialFallback,
				"tree merge degraded to serial fold",
				audit.A("surviving_nodes", float64(len(nodes))),
				audit.A("lost_legs", float64(env.stats.Resketches)))
			before := deltaOf(nodes)
			acc, d := serialMerge(nodes, env.trace)
			env.stats.Rounds = append(env.stats.Rounds,
				RoundStats{Legs: 1, Slowest: d, ShrinkMass: acc.Delta() - before})
			return acc, critical + d
		}

		spRound := obs.StartSpanIn(env.trace, "merge_round",
			obs.L("round", strconv.Itoa(round)))
		roundCtx := spRound.Context()
		groups := (len(nodes) + arity - 1) / arity
		next := make([]*mergeNode, groups)
		// Only the last group can be a singleton; it passes through to
		// the next round and is not a leg.
		legs := groups
		if len(nodes)%arity == 1 {
			legs--
			next[legs] = nodes[len(nodes)-1]
		}
		reports := make([]legReport, legs)
		forEach(legs, env.opts.sequential, func(g int) {
			group := nodes[g*arity : min((g+1)*arity, len(nodes))]
			next[g], reports[g] = runLeg(roundCtx, round, g, group, env)
		})
		spRound.End()
		rs := RoundStats{Legs: legs}
		for _, rep := range reports {
			rs.Failures += rep.failures
			rs.Retries += rep.retries
			rs.ShrinkMass += rep.shrink
			if rep.resketch {
				rs.Resketches++
			}
			if rep.duration > rs.Slowest {
				rs.Slowest = rep.duration
			}
		}
		env.stats.Rounds = append(env.stats.Rounds, rs)
		env.stats.LegFailures += rs.Failures
		env.stats.LegRetries += rs.Retries
		env.stats.Resketches += rs.Resketches
		critical += rs.Slowest
		nodes = next
	}
	return nodes[0].fd, critical
}

// serialMerge folds every node into the first, one at a time, under a
// merge_serial_fold span; every merge is on the critical path.
func serialMerge(nodes []*mergeNode, trace obs.SpanContext) (*sketch.FrequentDirections, time.Duration) {
	sp := obs.StartSpanIn(trace, "merge_serial_fold",
		obs.L("nodes", strconv.Itoa(len(nodes))))
	defer sp.End()
	t0 := time.Now()
	acc := foldInto(nodes[0].fd, nodes[1:])
	return acc, time.Since(t0)
}

// foldInto merges rest into acc in order, compacting after each merge
// so the accumulator re-enters the next one at ℓ rows, and returns acc.
func foldInto(acc *sketch.FrequentDirections, rest []*mergeNode) *sketch.FrequentDirections {
	for _, nd := range rest {
		acc.Merge(nd.fd)
		acc.Compact()
	}
	return acc
}

// deltaOf sums the nodes' certificate mass Σδ — the baseline a fold's
// net shrinkage is reported against.
func deltaOf(nodes []*mergeNode) float64 {
	sum := 0.0
	for _, nd := range nodes {
		sum += nd.fd.Delta()
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
// folds them in place (fds[0] becomes the result, the rest are left
// compacted and spent). Its spans (merge_sketches → merge_round →
// merge_leg) parent into the given trace; the zero SpanContext roots a
// standalone one.
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

	nodes := make([]*mergeNode, len(fds))
	rotBefore := 0
	for i, fd := range fds {
		nodes[i] = &mergeNode{fd: fd, shards: []int{i}}
		rotBefore += fd.Rotations()
	}
	deltaBefore := deltaOf(nodes)
	env := &mergeEnv{opts: newRunOptions(nil), stats: &stats, trace: sp.Context()}
	global, crit := mergeNodes(nodes, strategy, env)
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
