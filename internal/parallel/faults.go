package parallel

import (
	"errors"
	"math"
	"strconv"
	"time"

	"arams/internal/audit"
	"arams/internal/obs"
	"arams/internal/rng"
	"arams/internal/sketch"
)

// Fault-tolerance observability: every tree-merge leg, its failures
// and retries, the recoveries that re-sketched a leg's shards, and the
// full drops to serial merging. These are the counters the acceptance
// chaos tests scrape from /metrics.
var (
	obsMergeLegs       = obs.Default().Counter("arams_parallel_merge_legs_total")
	obsLegFailures     = obs.Default().Counter("arams_parallel_merge_leg_failures_total")
	obsLegRetries      = obs.Default().Counter("arams_parallel_merge_leg_retries_total")
	obsLegResketches   = obs.Default().Counter("arams_parallel_merge_leg_resketch_total")
	obsSerialFallbacks = obs.Default().Counter("arams_parallel_serial_fallbacks_total")
	obsLegSeconds      = obs.Default().Histogram("arams_parallel_merge_leg_seconds")
)

// Faults configures deterministic fault injection for tree-merge legs:
// each leg attempt may fail outright, stall, or corrupt its output,
// with probabilities drawn from a seeded per-leg RNG stream — the same
// (Seed, round, group) always produces the same fault pattern, so a
// chaotic run is exactly reproducible. Fault injection exists to prove
// the recovery machinery: because FD sketches are mergeable summaries,
// any leg can be lost and re-computed without breaking the covariance
// bound, and the chaos tests assert exactly that.
type Faults struct {
	// FailProb is the per-attempt probability that the leg errors after
	// doing its work (a crashed worker).
	FailProb float64
	// DelayProb is the per-attempt probability that the leg stalls for
	// Delay before finishing (a straggler; combine with
	// Retry.LegTimeout to turn stragglers into failures).
	DelayProb float64
	// Delay is the injected stall duration (default 1ms).
	Delay time.Duration
	// CorruptProb is the per-attempt probability that the leg's output
	// sketch is poisoned with a NaN (a torn buffer); the validation
	// pass detects it and the leg is retried.
	CorruptProb float64
	// Seed feeds the per-leg RNG streams.
	Seed uint64
}

// Retry configures the per-leg retry/timeout/backoff policy and the
// degradation thresholds. The zero value means: 3 attempts per leg,
// 200µs base backoff (doubling per retry), no timeout, and a drop to
// serial merging after 2 legs exhaust their retries.
type Retry struct {
	// MaxAttempts is the number of tries per leg before the leg is
	// declared lost and recovered by re-sketching (default 3).
	MaxAttempts int
	// Backoff is the sleep before the first retry; it doubles on each
	// subsequent retry (default 200µs).
	Backoff time.Duration
	// LegTimeout bounds one attempt's wall time; 0 disables. An
	// attempt that exceeds it counts as a failure.
	LegTimeout time.Duration
	// MaxFailedLegs is how many legs may exhaust their retries before
	// the run degrades to a serial fold of the surviving sketches, with
	// no further fault exposure (default 2).
	MaxFailedLegs int
}

func (r Retry) withDefaults() Retry {
	if r.MaxAttempts <= 0 {
		r.MaxAttempts = 3
	}
	if r.Backoff <= 0 {
		r.Backoff = 200 * time.Microsecond
	}
	if r.MaxFailedLegs <= 0 {
		r.MaxFailedLegs = 2
	}
	return r
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
// host with fewer cores than workers the default goroutines time-slice
// and per-goroutine timings degenerate to wall time; a sequential run
// is the measurement to use for strong-scaling studies there (Total is
// then the summed work). The sketch is bit-identical either way.
func Sequential() Option {
	return func(o *runOptions) { o.sequential = true }
}

// WithFaults enables deterministic fault injection on tree-merge legs.
func WithFaults(f Faults) Option {
	return func(o *runOptions) {
		if f.Delay <= 0 {
			f.Delay = time.Millisecond
		}
		o.faults = &f
	}
}

// WithRetry overrides the leg retry/timeout/degradation policy.
func WithRetry(r Retry) Option {
	return func(o *runOptions) {
		o.retry = r.withDefaults()
		o.retrySet = true
	}
}

// WithTrace parents the run's spans (parallel_run → sketch/merge →
// merge_round → merge_leg, including retry and re-sketch recovery
// legs) into an existing trace, so a caller's batch shows up as one
// connected tree on /tracez. Without it the run roots its own trace.
func WithTrace(ctx obs.SpanContext) Option {
	return func(o *runOptions) { o.trace = ctx }
}

type runOptions struct {
	arity      int
	sequential bool
	faults     *Faults
	retry      Retry
	retrySet   bool
	trace      obs.SpanContext
}

func newRunOptions(options []Option) *runOptions {
	o := &runOptions{arity: 2, retry: Retry{}.withDefaults()}
	for _, fn := range options {
		fn(o)
	}
	return o
}

// guarded reports whether legs must run on the clone-validate-retry
// path: with fault injection on, or with a timeout that can fail an
// otherwise infallible in-process merge.
func (o *runOptions) guarded() bool {
	return o.faults != nil || (o.retrySet && o.retry.LegTimeout > 0)
}

// legReport is one leg's accounting, reduced into RoundStats after the
// round's barrier.
type legReport struct {
	failures int
	retries  int
	resketch bool
	duration time.Duration
	// shrink is the net shrinkage Σδ the leg added to the surviving
	// sketch (its certificate contribution; negative for a re-sketch
	// recovery that came back with less accumulated shrinkage than the
	// children it replaced).
	shrink float64
}

var errLegFailed = errors.New("parallel: injected leg failure")
var errLegCorrupt = errors.New("parallel: merge leg produced a corrupt sketch")
var errLegTimeout = errors.New("parallel: merge leg timed out")

// runLeg folds group[1:] into group[0] and returns the resulting node.
// On the guarded path every attempt works on a clone of the
// accumulator, validates the result, and retries with exponential
// backoff; a leg that exhausts its attempts is recovered by
// re-sketching its shards serially — the mergeability guarantee makes
// the recomputed sketch interchangeable with the lost one. The leg
// records a merge_leg span under parent (the round's span), so retry
// and recovery legs stay inside the batch's trace; a leg that saw any
// failure fires the flight recorder on exit.
func runLeg(parent obs.SpanContext, round, gIdx int, group []*mergeNode, env *mergeEnv) (_ *mergeNode, rep legReport) {
	covered := coveredShards(group)
	// groupDelta: the children's combined certificate mass before the
	// fold; each exit path reports the leg's net shrinkage against it.
	groupDelta := deltaOf(group)
	sp := obs.Default().StartSpanIn(parent, "merge_leg",
		obs.L("round", strconv.Itoa(round)),
		obs.L("group", strconv.Itoa(gIdx)),
		obs.L("shards", strconv.Itoa(len(covered))))
	// The CPU timer pins the goroutine to its OS thread, which slows a
	// fold that fans out to the kernel pool by about a third; a
	// sequential run exists to time the fold itself, so it goes unpinned.
	var ct obs.CPUTimer
	if !env.opts.sequential {
		ct = obs.StartCPUTimer()
	}
	t0 := time.Now()
	defer func() {
		// rep is the named result: the duration lands in what the
		// caller receives, where the round's critical path reads it.
		rep.duration = time.Since(t0)
		obsLegSeconds.Observe(rep.duration.Seconds())
		if cpu, ok := ct.Stop(); ok {
			sp.SetCPU(cpu)
		}
		if rep.failures > 0 {
			sp.SetAttr("failures", strconv.Itoa(rep.failures))
		}
		if rep.resketch {
			sp.SetAttr("resketch", "true")
		}
		sp.End()
		if rep.failures > 0 {
			obs.Default().FlightTrigger("merge_leg_fault")
		}
	}()
	obsMergeLegs.Inc()

	if !env.opts.guarded() {
		// Fast path: in-process merges cannot fail, so fold in place
		// with zero copies, exactly the pre-fault-tolerance behavior.
		acc := foldInto(group[0].fd, group[1:])
		rep.shrink = acc.Delta() - groupDelta
		return &mergeNode{fd: acc, shards: covered}, rep
	}

	retry := env.opts.retry
	var legRNG *rng.RNG
	if env.opts.faults != nil {
		// One independent stream per (round, group): the fault pattern
		// is a pure function of the seed and the leg's tree position,
		// never of goroutine scheduling.
		legRNG = rng.NewStream(env.opts.faults.Seed, uint64(round)<<32|uint64(gIdx))
	}
	backoff := retry.Backoff
	for attempt := 0; attempt < retry.MaxAttempts; attempt++ {
		if attempt > 0 {
			rep.retries++
			obsLegRetries.Inc()
			time.Sleep(backoff)
			backoff *= 2
		}
		spAtt := sp.StartChild("merge_attempt", obs.L("attempt", strconv.Itoa(attempt)))
		fd, err := attemptLeg(group, env.opts.faults, legRNG, retry.LegTimeout)
		if err != nil {
			spAtt.SetAttr("error", err.Error())
		}
		spAtt.End()
		if err == nil {
			rep.shrink = fd.Delta() - groupDelta
			return &mergeNode{fd: fd, shards: covered}, rep
		}
		rep.failures++
		obsLegFailures.Inc()
	}

	// Retries exhausted: the leg is lost. Recover it from source data —
	// re-sketch every covered shard serially and fold the fresh
	// sketches together. This path takes no fault injection; it is the
	// reliable degraded mode.
	rep.resketch = true
	obsLegResketches.Inc()
	spRe := sp.StartChild("merge_resketch", obs.L("shards", strconv.Itoa(len(covered))))
	fresh := resketchShards(covered, env)
	spRe.End()
	rep.shrink = fresh.Delta() - groupDelta
	audit.Default().Record(audit.KindMergeRecovery,
		"merge leg lost; re-sketched from source shards",
		audit.A("round", float64(round)),
		audit.A("group", float64(gIdx)),
		audit.A("shards", float64(len(covered))),
		audit.A("failures", float64(rep.failures)),
		audit.A("shrink_mass", fresh.Delta()))
	return &mergeNode{fd: fresh, shards: covered}, rep
}

// attemptLeg performs one guarded merge attempt on a clone of the
// accumulator. Fault decisions are drawn up front (a fixed number of
// draws per attempt keeps the stream aligned across retries), the
// merge runs — under a timeout when configured — and the result is
// validated before it may replace the real accumulator.
func attemptLeg(group []*mergeNode, faults *Faults, legRNG *rng.RNG, timeout time.Duration) (*sketch.FrequentDirections, error) {
	var injectFail, injectDelay, injectCorrupt bool
	if faults != nil {
		injectFail = legRNG.Float64() < faults.FailProb
		injectDelay = legRNG.Float64() < faults.DelayProb
		injectCorrupt = legRNG.Float64() < faults.CorruptProb
	}

	return within(timeout, func() (*sketch.FrequentDirections, error) {
		acc := foldInto(group[0].fd.Clone(), group[1:])
		if injectDelay {
			time.Sleep(faults.Delay)
		}
		if injectFail {
			return nil, errLegFailed
		}
		if injectCorrupt {
			acc.CorruptForTest(math.NaN())
		}
		if !acc.Finite() {
			return nil, errLegCorrupt
		}
		return acc, nil
	})
}

// within calls fn and gives up on it after timeout (0 = call inline,
// unbounded) with errLegTimeout. A call that outlives its timeout
// finishes into a buffered channel and is discarded: it never blocks
// the merge, and whatever sketch it was building never escapes. Both
// fallible steps of a merge — a guarded leg attempt and a remote leg
// fetch — are bounded through here.
func within(timeout time.Duration, fn func() (*sketch.FrequentDirections, error)) (*sketch.FrequentDirections, error) {
	if timeout <= 0 {
		return fn()
	}
	type result struct {
		fd  *sketch.FrequentDirections
		err error
	}
	done := make(chan result, 1)
	go func() {
		fd, err := fn()
		done <- result{fd, err}
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case r := <-done:
		return r.fd, r.err
	case <-timer.C:
		return nil, errLegTimeout
	}
}

// resketchShards rebuilds a sketch of the given shards from scratch,
// serially — the recovery path for a lost merge leg.
func resketchShards(covered []int, env *mergeEnv) *sketch.FrequentDirections {
	fresh := make([]*mergeNode, len(covered))
	for i, si := range covered {
		fd := env.mk(env.shards[si])
		fd.Compact()
		fresh[i] = &mergeNode{fd: fd}
	}
	return foldInto(fresh[0].fd, fresh[1:])
}

// coveredShards concatenates the shard index sets of a merge group.
func coveredShards(group []*mergeNode) []int {
	n := 0
	for _, nd := range group {
		n += len(nd.shards)
	}
	out := make([]int, 0, n)
	for _, nd := range group {
		out = append(out, nd.shards...)
	}
	return out
}
