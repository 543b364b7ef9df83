package audit_test

import (
	"math"
	"testing"

	"arams/internal/audit"
	"arams/internal/obs"
	"arams/internal/sketch"
)

// newTestAuditor builds an auditor with its own journal and registry
// (nothing leaks into the process-global defaults) and fast-warmup
// detectors so tests don't need hundreds of batches.
func newTestAuditor(onAlarm func(audit.Alarm)) (*audit.Auditor, *audit.Journal, *obs.Registry) {
	j := audit.NewJournal(64)
	r := obs.NewRegistry()
	a := audit.New(audit.Config{
		Residual:  &audit.PageHinkley{Delta: 0.01, Lambda: 0.05, MinSamples: 5},
		Accept:    &audit.PageHinkley{Delta: 0.01, Lambda: 0.05, MinSamples: 5},
		Journal:   j,
		Registry:  r,
		OnAlarm:   onAlarm,
		CertEvery: 4,
	})
	return a, j, r
}

func testCert() audit.Certificate {
	return audit.Certificate{Rows: 100, Dim: 10, Ell: 5, Rotations: 7, ShrinkMass: 2, FrobMass: 50}
}

// TestAuditorObserveBatchDerivesSignals: the residual proxy is
// DeltaAdded/KeptMass, the acceptance rate comes from BatchStats, and
// both land on the registry gauges alongside the certificate bounds.
func TestAuditorObserveBatchDerivesSignals(t *testing.T) {
	a, _, r := newTestAuditor(nil)
	cert := testCert()
	a.ObserveBatch(sketch.BatchStats{
		Rows: 8, Kept: 6, TotalMass: 20, KeptMass: 10, DeltaAdded: 1,
	}, cert)

	if a.Batches() != 1 {
		t.Fatalf("Batches = %d, want 1", a.Batches())
	}
	if got := a.LastCertificate(); got != cert {
		t.Fatalf("LastCertificate = %+v, want %+v", got, cert)
	}
	for name, want := range map[string]float64{
		"arams_audit_batch_residual": 0.1, // 1/10
		"arams_audit_accept_rate":    0.5, // 10/20
		"arams_audit_cov_bound":      cert.CovBound(),
		"arams_audit_rel_bound":      cert.RelBound(),
	} {
		if got := r.Gauge(name).Value(); math.Abs(got-want) > 1e-12 {
			t.Fatalf("gauge %s = %v, want %v", name, got, want)
		}
	}
}

// TestAuditorAlarmFlow: a residual jump after a stationary prefix must
// raise exactly the typed alarm — journaled, counted on the registry,
// and delivered to the OnAlarm callback with the journal sequence.
func TestAuditorAlarmFlow(t *testing.T) {
	var alarms []audit.Alarm
	a, j, r := newTestAuditor(func(al audit.Alarm) { alarms = append(alarms, al) })
	for i := 0; i < 10; i++ {
		a.Observe(audit.Observation{Residual: 0.01, AcceptRate: math.NaN(), Cert: testCert()})
	}
	if a.Alarms() != 0 || len(alarms) != 0 {
		t.Fatalf("false alarms on a flat stream: %d", a.Alarms())
	}
	for i := 0; i < 5 && a.Alarms() == 0; i++ {
		a.Observe(audit.Observation{Residual: 0.5, AcceptRate: math.NaN(), Cert: testCert()})
	}
	if a.Alarms() != 1 || len(alarms) != 1 {
		t.Fatalf("alarms = %d (callback %d), want 1", a.Alarms(), len(alarms))
	}
	al := alarms[0]
	if al.Signal != "residual" || al.Value != 0.5 {
		t.Fatalf("alarm = %+v, want residual/0.5", al)
	}
	evs := j.Query(audit.Query{Kind: audit.KindAlarm})
	if len(evs) != 1 || evs[0].Seq != al.Seq {
		t.Fatalf("journal alarm events = %+v, want one with seq %d", evs, al.Seq)
	}
	if got := r.Counter("arams_audit_alarms_total", obs.L("signal", "residual")).Value(); got != 1 {
		t.Fatalf("alarm counter = %v, want 1", got)
	}
	// NaN acceptance rates skipped the accept detector entirely.
	if n := a.State().Accept.N; n != 0 {
		t.Fatalf("accept detector consumed %d NaN observations", n)
	}
}

// TestAuditorAcceptRateAlarm: the acceptance-rate signal raises its own
// typed alarm when sampling behavior drifts.
func TestAuditorAcceptRateAlarm(t *testing.T) {
	var alarms []audit.Alarm
	a, _, _ := newTestAuditor(func(al audit.Alarm) { alarms = append(alarms, al) })
	for i := 0; i < 10; i++ {
		a.Observe(audit.Observation{Residual: 0.01, AcceptRate: 0.9, Cert: testCert()})
	}
	for i := 0; i < 5 && len(alarms) == 0; i++ {
		a.Observe(audit.Observation{Residual: 0.01, AcceptRate: 0.3, Cert: testCert()})
	}
	if len(alarms) != 1 || alarms[0].Signal != "accept_rate" {
		t.Fatalf("alarms = %+v, want one accept_rate alarm", alarms)
	}
}

// TestAuditorCertificateCadence: certificates are journaled every
// CertEvery batches, not per batch.
func TestAuditorCertificateCadence(t *testing.T) {
	a, j, _ := newTestAuditor(nil)
	for i := 0; i < 9; i++ { // CertEvery = 4 → certs at batches 4 and 8
		a.Observe(audit.Observation{Residual: 0.01, AcceptRate: math.NaN(), Cert: testCert()})
	}
	evs := j.Query(audit.Query{Kind: audit.KindCertificate})
	if len(evs) != 2 {
		t.Fatalf("certificate events = %d, want 2", len(evs))
	}
	if evs[0].Get("cov_bound", -1) != testCert().CovBound() {
		t.Fatalf("certificate event attrs = %+v", evs[0].Attrs)
	}
}

// TestAuditorStateRoundTrip: State/Restore carries the counters and
// the exact detector internals, so a restored auditor continues the
// alarm sequence identically.
func TestAuditorStateRoundTrip(t *testing.T) {
	a, _, _ := newTestAuditor(nil)
	for i := 0; i < 7; i++ {
		a.Observe(audit.Observation{Residual: 0.02, AcceptRate: 0.8, Cert: testCert()})
	}
	st := a.State()

	b, _, _ := newTestAuditor(nil)
	b.Restore(st)
	if b.Batches() != a.Batches() || b.Alarms() != a.Alarms() {
		t.Fatalf("restored counters %d/%d, want %d/%d", b.Batches(), b.Alarms(), a.Batches(), a.Alarms())
	}
	if b.State() != st {
		t.Fatalf("restored state %+v != snapshot %+v", b.State(), st)
	}
	// Both observe the same drifting suffix: alarm counts must agree.
	for i := 0; i < 10; i++ {
		o := audit.Observation{Residual: 0.4, AcceptRate: 0.8, Cert: testCert()}
		a.Observe(o)
		b.Observe(o)
	}
	if a.Alarms() != b.Alarms() {
		t.Fatalf("post-restore alarm counts diverged: %d vs %d", a.Alarms(), b.Alarms())
	}
}

// TestAuditorRestoreUnknownDetectors: Restore adopts the detector state
// it is given whatever its kind — here the zero State's empty one, which
// no checkpoint decoder returns — as Page-Hinkley detectors with exactly
// the snapshot's parameters and statistics.
func TestAuditorRestoreUnknownDetectors(t *testing.T) {
	a, _, _ := newTestAuditor(nil)
	a.Restore(audit.State{Batches: 7, Alarms: 2})
	if a.Batches() != 7 || a.Alarms() != 2 {
		t.Fatalf("counters = %d/%d, want 7/2", a.Batches(), a.Alarms())
	}
	want := audit.DetectorState{Kind: "page_hinkley"}
	if st := a.State(); st.Residual != want || st.Accept != want {
		t.Fatalf("restored detectors %+v / %+v, want the zero snapshot adopted: %+v", st.Residual, st.Accept, want)
	}
}

// TestAuditorZeroConfigDefaults: the zero Config is usable and wires
// the default journal.
func TestAuditorZeroConfigDefaults(t *testing.T) {
	a := audit.New(audit.Config{Registry: obs.NewRegistry()})
	if a.Journal() != audit.Default() {
		t.Fatal("zero config did not wire the default journal")
	}
	st := a.State()
	if st.Residual.Kind != "page_hinkley" || st.Accept.Kind != "page_hinkley" {
		t.Fatalf("default detectors = %q/%q", st.Residual.Kind, st.Accept.Kind)
	}
}
