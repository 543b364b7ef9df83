// Package audit is the sketch-quality layer of the monitoring system:
// where internal/obs answers "how fast is the pipeline running", audit
// answers the question the paper actually cares about — "is the sketch
// still accurate right now?".
//
// Frequent Directions makes that answerable online for free. Every
// shrink rotation subtracts δ = σ_ℓ² from the retained spectrum, and
// Liberty's analysis certifies ‖AᵀA − BᵀB‖₂ ≤ Σδ for the accumulated
// shrinkage mass — a data-dependent, provable covariance-error bound
// that costs nothing beyond a running sum the sketch already keeps.
// The mergeability result of Ghashami et al. makes the certificate
// compositional: merging sketches adds their shrinkage masses (plus
// whatever the merge rotations shrink), so the bound survives every
// arity and order of the tree merge in internal/parallel.
//
// The package provides three cooperating pieces:
//
//   - Certificate: the per-sketch error-bound statement (absolute
//     bound Σδ, relative bound Σδ/‖A‖_F², the a-priori bound ‖A‖_F²/ℓ
//     it tightens, and the rank/ℓ trajectory), extracted from any
//     FrequentDirections sketch and composable across merges.
//   - Page-Hinkley drift detectors over per-batch projection
//     residuals and priority-sampling acceptance rates, raising typed
//     alarms when the stream departs from the sketched subspace.
//   - A bounded structured event Journal (ring + optional JSONL sink)
//     recording certificates, alarms, rank growth, lost remote legs,
//     and checkpoint events, served over HTTP at /audit and summarized
//     as sparklines on /statusz via the obs time-series ring.
package audit

import (
	"math"
	"time"

	"arams/internal/sketch"
)

// Certificate is a provable online accuracy statement about one
// Frequent Directions sketch — or, composed, about several sketches
// stacked, which are themselves a sketch of the concatenated stream —
// valid for the stream summarized (for ARAMS with β < 1, that is the
// post-sampling stream). A sharded engine's live certificate is the
// Compose of its shards' and describes the stacked shard sketches; a
// sketch merged from them has its own, which adds the merge's
// shrinkage.
type Certificate struct {
	// Rows is the number of stream rows the sketch summarizes.
	Rows int `json:"rows"`
	// Dim is the feature dimension d.
	Dim int `json:"dim"`
	// Ell is the current number of retained directions.
	Ell int `json:"ell"`
	// Rotations is the number of shrink steps performed.
	Rotations int `json:"rotations"`
	// ShrinkMass is Σδ, the certified bound ‖AᵀA − BᵀB‖₂ ≤ ShrinkMass
	// (Liberty 2013) for the float64 stream A: the shrinkage accumulated
	// across rotations plus the charge for storing each appended row at
	// float32 until the next rotation, (2u + u²)‖a‖² with u = 2⁻²⁴ and
	// a term for subnormal elements (sketch.FrequentDirections.Delta).
	// Composes additively across merges.
	ShrinkMass float64 `json:"shrink_mass"`
	// FrobMass is the accumulated squared Frobenius norm ‖A‖_F² of the
	// summarized stream. Zero when unknown (e.g. a sketch restored from
	// a pre-audit checkpoint), in which case the relative bounds are
	// reported as NaN-free zeros.
	FrobMass float64 `json:"frob_mass"`
	// Time stamps when the certificate was cut.
	Time time.Time `json:"time"`
}

// FromSketch extracts the current certificate of a sketch.
func FromSketch(fd *sketch.FrequentDirections) Certificate {
	return Certificate{
		Rows:       fd.Seen(),
		Dim:        fd.Dim(),
		Ell:        fd.Ell(),
		Rotations:  fd.Rotations(),
		ShrinkMass: fd.Delta(),
		FrobMass:   fd.FrobMass(),
		Time:       time.Now(),
	}
}

// CovBound returns the certified covariance-error bound
// ‖AᵀA − BᵀB‖₂ ≤ Σδ, float32 rounding of the stored rows included.
func (c Certificate) CovBound() float64 { return c.ShrinkMass }

// RelBound returns the scale-free certificate Σδ/‖A‖_F² — the fraction
// of the stream's total energy the sketch may have lost in any single
// direction. Returns 0 when the stream energy is unknown or zero.
func (c Certificate) RelBound() float64 {
	if c.FrobMass <= 0 {
		return 0
	}
	return c.ShrinkMass / c.FrobMass
}

// AprioriBound returns the classical Frequent Directions worst case
// ‖A‖_F²/ℓ the online certificate tightens; Tightening reports by how
// much.
func (c Certificate) AprioriBound() float64 {
	if c.Ell <= 0 {
		return 0
	}
	return c.FrobMass / float64(c.Ell)
}

// Tightening returns CovBound/AprioriBound — how much sharper the
// online certificate is than the a-priori analysis (≤ 1 up to
// rank-growth effects; small is good). Returns 0 when the a-priori
// bound is unknown.
func (c Certificate) Tightening() float64 {
	ap := c.AprioriBound()
	if ap <= 0 || math.IsNaN(ap) {
		return 0
	}
	return c.ShrinkMass / ap
}

// Compose folds child certificates into one parent statement without
// touching a sketch: rows, rotations and stream energies add, shrinkage
// masses add, and the rank is the maximum. It certifies the children's
// sketches stacked: ‖AᵀA − Σ BᵢᵀBᵢ‖₂ ≤ Σ δᵢ, since AᵀA − Σ BᵢᵀBᵢ is a
// sum of terms each bounded in norm by its own δᵢ, rounding charges
// included (the triangle inequality needs no term to be PSD). That is the live
// certificate of a sharded engine and of a checkpoint's shards, and it
// needs no merge. A tree merge of the children adds the shrinkage of
// its own rotations, so a merged sketch's certificate dominates this
// one (merged.ShrinkMass ≥ Compose(children).ShrinkMass − ε is what the
// property tests pin). The Compose of one certificate is that
// certificate.
func Compose(children ...Certificate) Certificate {
	var out Certificate
	for _, c := range children {
		out.Rows += c.Rows
		out.ShrinkMass += c.ShrinkMass
		out.FrobMass += c.FrobMass
		out.Rotations += c.Rotations
		if c.Ell > out.Ell {
			out.Ell = c.Ell
		}
		if c.Dim > out.Dim {
			out.Dim = c.Dim
		}
		if c.Time.After(out.Time) {
			out.Time = c.Time
		}
	}
	return out
}
