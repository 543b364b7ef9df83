package engine

import "arams/internal/obs"

// Reconcile cadence. Reconciling — snapshotting every shard and
// tree-merging the snapshots into the cached global sketch — is the one
// wholesale cost the sharded engine pays that the serial monitor never
// did, and a fixed countdown would pay it on schedule whether or not
// the cache is stale. The controller here decides from what the stream
// is actually doing:
//
//   - marginal Σδ growth since the last reconcile (fed from the
//     per-dispatch BatchStats.DeltaAdded the shards already report, and
//     anchored sketch-side by FrequentDirections.MarkDelta at each
//     reconcile). Σδ is the certified bound on ‖AᵀA − BᵀB‖₂, so zero
//     growth means the shards' spectra have not moved and the cached
//     global basis is as good as a fresh merge — a quiet stream whose
//     rows keep landing inside the retained subspace reconciles only at
//     the hard lag cap. Fast growth means drift: the cache is going
//     stale and the controller merges eagerly.
//   - merge lag (frames ingested since the cache was built) supplies
//     hysteresis and the hard bound: below minLag the controller never
//     merges (a reconcile per batch would serialize the shards again),
//     at maxLag it always does, so snapshot readers have a worst-case
//     staleness guarantee even on streams with pathological Σδ.
//   - the frame-budget burn EWMA scales the Σδ threshold: when the
//     engine is already missing its 120 Hz budget, merges are the first
//     load to shed, so an over-budget engine defers them (up to maxLag)
//     and catches up on throughput first.
//
// Audit-tick and snapshot-path reconciles (Certificate, Basis,
// GlobalSketch) bypass the controller entirely — certificates always
// cover every shard — and reset its state like any other reconcile.
//
// Reconciles only snapshot shards and never mutate them, so the
// post-Drain global sketch is bit-identical whatever the cadence; the
// property test in reconcile_test.go holds two differently tuned
// controllers against each other.

// reconcileCtl holds the cadence state. Guarded by Engine.globalMu,
// like the cached global sketch whose staleness it tracks.
type reconcileCtl struct {
	minLag    int     // never reconcile below this lag
	maxLag    int     // always reconcile at this lag
	deltaFrac float64 // relative Σδ growth that triggers a merge

	deltaSince float64 // Σδ added by shard absorbs since the last reconcile
	deltaTotal float64 // lifetime Σδ the shards reported (the scale reference)
	reconciles int     // merges performed, all causes

	gauge *obs.Gauge // arams_engine_delta_since_reconcile (per-engine)
}

func newReconcileCtl(cfg Config, eo *engineObs) reconcileCtl {
	return reconcileCtl{
		minLag:    max(1, cfg.ReconcileEvery/4),
		maxLag:    cfg.ReconcileMaxLag,
		deltaFrac: cfg.ReconcileDeltaFrac,
		gauge:     eo.deltaSince,
	}
}

// note folds one dispatch's marginal shrinkage in.
func (rc *reconcileCtl) note(deltaAdded float64) {
	rc.deltaSince += deltaAdded
	rc.deltaTotal += deltaAdded
	rc.gauge.Set(rc.deltaSince)
}

// due reports whether the cached global sketch should be rebuilt given
// the current merge lag (frames) and frame-budget burn EWMA.
func (rc *reconcileCtl) due(lag int, burn float64) bool {
	if lag <= 0 {
		return false
	}
	if lag >= rc.maxLag {
		return true
	}
	if lag < rc.minLag {
		return false
	}
	frac := rc.deltaFrac
	if burn > 1 {
		// Over budget: raise the bar so throughput recovers before the
		// engine spends cycles on freshness.
		frac *= burn
	}
	// Strict inequality: a stream adding zero shrinkage (rows inside the
	// retained subspace) stays lazy until maxLag.
	return rc.deltaSince > frac*rc.deltaTotal
}

// noteReconcile resets the staleness accumulator after a merge.
func (rc *reconcileCtl) noteReconcile() {
	rc.deltaSince = 0
	rc.reconciles++
	rc.gauge.Set(0)
}

// Reconciles returns how many global-sketch rebuilds have run (periodic
// and forced).
func (e *Engine) Reconciles() int {
	e.globalMu.Lock()
	defer e.globalMu.Unlock()
	return e.rc.reconciles
}

// DeltaSinceReconcile returns the marginal Σδ the shards have
// accumulated since the last reconcile — the staleness signal the
// controller acts on.
func (e *Engine) DeltaSinceReconcile() float64 {
	e.globalMu.Lock()
	defer e.globalMu.Unlock()
	return e.rc.deltaSince
}
