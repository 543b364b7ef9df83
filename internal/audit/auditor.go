package audit

import (
	"math"
	"sync"

	"arams/internal/obs"
	"arams/internal/sketch"
)

// Alarm is one typed drift alarm raised by an Auditor.
type Alarm struct {
	// Seq is the journal sequence number of the alarm event.
	Seq int64 `json:"seq"`
	// Signal names the drifting stream: "residual" (per-batch
	// projection-residual proxy) or "accept_rate" (priority-sampling
	// acceptance mass rate).
	Signal string `json:"signal"`
	// Value is the observation that tripped the detector.
	Value float64 `json:"value"`
	// Batch is the auditor's batch counter at alarm time.
	Batch int64 `json:"batch"`
}

// Config parameterizes an Auditor. The zero value is usable: default
// detectors, the default journal, the default obs registry.
type Config struct {
	// Residual detects drift in the per-batch shrinkage-residual
	// fraction (the share of each batch's energy the sketch could not
	// retain). Defaults to NewPageHinkley(0.005, 0.5).
	Residual *PageHinkley
	// Accept detects drift in the priority-sampling acceptance mass
	// rate. Defaults to NewPageHinkley(0.01, 1.0).
	Accept *PageHinkley
	// Journal receives certificate and alarm events. Defaults to
	// Default().
	Journal *Journal
	// Registry receives gauges and sparkline series. Defaults to
	// obs.Default().
	Registry *obs.Registry
	// OnAlarm, when set, is called synchronously for every alarm after
	// it has been journaled.
	OnAlarm func(Alarm)
	// CertEvery journals a full certificate event every N observed
	// batches (alarms are always journaled). Default 16; negative
	// disables certificate journaling.
	CertEvery int
}

// Auditor turns per-batch sketch statistics into quality telemetry: it
// maintains the running error-bound certificate, drives the drift
// detectors, journals certificates and alarms, and feeds the obs
// gauges/series behind /statusz. All methods are safe for concurrent
// use.
type Auditor struct {
	mu       sync.Mutex
	resDet   *PageHinkley
	accDet   *PageHinkley
	journal  *Journal
	reg      *obs.Registry
	onAlarm  func(Alarm)
	certEach int

	batches  int64
	alarms   int64
	lastCert Certificate
	lastRes  float64
	lastAcc  float64
}

// New creates an Auditor from cfg (zero-value fields get defaults).
func New(cfg Config) *Auditor {
	a := &Auditor{
		resDet:   cfg.Residual,
		accDet:   cfg.Accept,
		journal:  cfg.Journal,
		reg:      cfg.Registry,
		onAlarm:  cfg.OnAlarm,
		certEach: cfg.CertEvery,
	}
	if a.resDet == nil {
		a.resDet = NewPageHinkley(0.005, 0.5)
	}
	if a.accDet == nil {
		a.accDet = NewPageHinkley(0.01, 1.0)
	}
	if a.journal == nil {
		a.journal = Default()
	}
	if a.reg == nil {
		a.reg = obs.Default()
	}
	if a.certEach == 0 {
		a.certEach = 16
	}
	return a
}

// Journal returns the journal this auditor records into.
func (a *Auditor) Journal() *Journal { return a.journal }

// Batches returns the number of batches observed.
func (a *Auditor) Batches() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.batches
}

// Alarms returns the number of alarms raised.
func (a *Auditor) Alarms() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.alarms
}

// LastCertificate returns the most recent certificate observed (the
// zero Certificate before the first batch).
func (a *Auditor) LastCertificate() Certificate {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lastCert
}

// ObserveBatch audits one processed batch: stats are the sketch's
// per-batch accounting and cert the sketch's current certificate.
// The residual signal is derived from stats as DeltaAdded/KeptMass —
// the fraction of the batch's retained energy the sketch had to shrink
// away, which spikes when the stream leaves the sketched subspace —
// so auditing costs no extra linear algebra on the hot path.
func (a *Auditor) ObserveBatch(stats sketch.BatchStats, cert Certificate) {
	res := 0.0
	if stats.KeptMass > 0 {
		res = stats.DeltaAdded / stats.KeptMass
	}
	a.Observe(Observation{
		Residual:   res,
		AcceptRate: stats.AcceptRate(),
		Cert:       cert,
	})
}

// Observation is one audit point. Callers that can afford exact
// projection residuals (e.g. an offline replay) may feed them directly
// instead of going through ObserveBatch.
type Observation struct {
	// Residual is the per-batch projection-residual signal in [0,1].
	Residual float64
	// AcceptRate is the priority-sampling acceptance mass rate in
	// (0,1]; NaN skips the acceptance detector for this batch.
	AcceptRate float64
	// Cert is the sketch's current certificate.
	Cert Certificate
}

// Observe consumes one audit point: updates the certificate state,
// drives both detectors, journals, and exports telemetry.
func (a *Auditor) Observe(o Observation) {
	a.mu.Lock()
	a.batches++
	batch := a.batches
	a.lastCert = o.Cert
	a.lastRes = o.Residual
	a.lastAcc = o.AcceptRate

	type fired struct {
		signal string
		value  float64
	}
	var al []fired
	if a.resDet.Update(o.Residual) {
		al = append(al, fired{"residual", o.Residual})
		a.resDet.Reset() // re-arm instead of re-firing every batch
	}
	if !math.IsNaN(o.AcceptRate) && a.accDet.Update(o.AcceptRate) {
		al = append(al, fired{"accept_rate", o.AcceptRate})
		a.accDet.Reset()
	}
	a.alarms += int64(len(al))
	certDue := a.certEach > 0 && batch%int64(a.certEach) == 0
	journal, reg, onAlarm := a.journal, a.reg, a.onAlarm
	a.mu.Unlock()

	reg.Gauge("arams_audit_cov_bound").Set(o.Cert.CovBound())
	reg.Gauge("arams_audit_rel_bound").Set(o.Cert.RelBound())
	reg.Gauge("arams_audit_batch_residual").Set(o.Residual)
	if !math.IsNaN(o.AcceptRate) {
		reg.Gauge("arams_audit_accept_rate").Set(o.AcceptRate)
		reg.Series("audit_accept_rate").Add(o.AcceptRate)
	}
	reg.Series("audit_batch_residual").Add(o.Residual)
	reg.Series("audit_rel_bound").Add(o.Cert.RelBound())
	reg.Series("audit_cov_bound").Add(o.Cert.CovBound())
	reg.Series("audit_sketch_ell").Add(float64(o.Cert.Ell))

	if certDue {
		journal.Record(KindCertificate, "error-bound certificate",
			A("rows", float64(o.Cert.Rows)),
			A("ell", float64(o.Cert.Ell)),
			A("rotations", float64(o.Cert.Rotations)),
			A("cov_bound", o.Cert.CovBound()),
			A("rel_bound", o.Cert.RelBound()),
			A("apriori_bound", o.Cert.AprioriBound()),
		)
	}
	for _, f := range al {
		ev := journal.Record(KindAlarm, "drift alarm: "+f.signal,
			A("value", f.value),
			A("batch", float64(batch)),
			A("cov_bound", o.Cert.CovBound()),
			A("rel_bound", o.Cert.RelBound()),
		)
		reg.Counter("arams_audit_alarms_total", obs.L("signal", f.signal)).Inc()
		// A drift alarm is a flight-recorder trigger: the ring holds the
		// spans and metric deltas leading up to the drift.
		reg.FlightTrigger("drift_alarm_" + f.signal)
		if onAlarm != nil {
			onAlarm(Alarm{Seq: ev.Seq, Signal: f.signal, Value: f.value, Batch: batch})
		}
	}
}

// State is the checkpointable snapshot of an Auditor: detector
// internals plus the running counters, so a restored process resumes
// drift detection mid-stream instead of re-warming from scratch.
type State struct {
	Batches  int64
	Alarms   int64
	Residual DetectorState
	Accept   DetectorState
}

// State snapshots the auditor for checkpointing.
func (a *Auditor) State() State {
	a.mu.Lock()
	defer a.mu.Unlock()
	return State{
		Batches:  a.batches,
		Alarms:   a.alarms,
		Residual: a.resDet.State(),
		Accept:   a.accDet.State(),
	}
}

// Restore replaces the auditor's detector and counter state with a
// checkpointed snapshot — one State wrote, so its detectors are
// Page-Hinkley (the checkpoint decoders refuse any other kind).
func (a *Auditor) Restore(st State) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.batches = st.Batches
	a.alarms = st.Alarms
	a.resDet = pageHinkleyFromState(st.Residual)
	a.accDet = pageHinkleyFromState(st.Accept)
}
