package pipeline_test

// Drift-injection chaos test for the audit layer: a monitor fed a
// stationary low-rank stream must stay silent, and the same monitor
// fed an injected distribution shift (full-rank high-energy frames the
// sketched subspace cannot represent) must raise a journaled residual
// alarm within a bounded number of audit batches, visible over the
// /audit endpoint.

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"testing"

	"arams/internal/audit"
	"arams/internal/imgproc"
	"arams/internal/mat"
	"arams/internal/obs"
	"arams/internal/pipeline"
	"arams/internal/rng"
	"arams/internal/sketch"
)

const (
	driftW, driftH  = 6, 6
	driftAuditEvery = 4
)

// stationaryFrame draws from a fixed rank-2 signal family with tiny
// noise — the "normal operation" regime the sketch captures almost
// exactly, so per-batch shrinkage residuals sit near zero.
func stationaryFrame(g *rng.RNG) *imgproc.Image {
	im := imgproc.NewImage(driftW, driftH)
	a := 1 + 0.5*g.Float64()
	b := 1 + 0.5*g.Float64()
	for y := 0; y < driftH; y++ {
		for x := 0; x < driftW; x++ {
			p1 := 1 / (1 + float64(x+y))
			p2 := float64(x-y) / 5
			im.Set(x, y, a*p1+b*p2+0.001*g.Norm())
		}
	}
	return im
}

// driftFrame is the injected shift: isotropic high-energy noise, full
// rank, far outside the stationary subspace — the sketch must shed
// mass on every rotation, which is exactly what the residual detector
// watches.
func driftFrame(g *rng.RNG) *imgproc.Image {
	im := imgproc.NewImage(driftW, driftH)
	for y := 0; y < driftH; y++ {
		for x := 0; x < driftW; x++ {
			im.Set(x, y, 3*g.Norm())
		}
	}
	return im
}

// driftAuditor builds an auditor with its own journal/registry and a
// fast-warmup residual detector suitable for short test streams.
func driftAuditor(onAlarm func(audit.Alarm)) (*audit.Auditor, *audit.Journal) {
	j := audit.NewJournal(256)
	a := audit.New(audit.Config{
		Residual:  &audit.PageHinkley{Delta: 0.01, Lambda: 0.05, MinSamples: 3},
		Accept:    &audit.PageHinkley{Delta: 0.01, Lambda: 0.05, MinSamples: 3},
		Journal:   j,
		Registry:  obs.NewRegistry(),
		OnAlarm:   onAlarm,
		CertEvery: 8,
	})
	return a, j
}

func driftConfig(a *audit.Auditor) pipeline.Config {
	return pipeline.Config{
		Sketch:     sketch.Config{Ell0: 8, Seed: 5},
		LatentDim:  4,
		Audit:      a,
		AuditEvery: driftAuditEvery,
	}
}

// TestChaosInjectedDriftAlarms is the drift acceptance test: 120
// stationary frames (30 audit batches) raise no alarm; 40 injected
// drift frames raise a residual alarm within 6 audit batches of the
// shift, the alarm is journaled, and the /audit endpoint serves it.
func TestChaosInjectedDriftAlarms(t *testing.T) {
	const stationaryN, driftN = 120, 40
	var alarms []audit.Alarm
	auditor, journal := driftAuditor(func(al audit.Alarm) { alarms = append(alarms, al) })
	m := pipeline.NewMonitor(driftConfig(auditor), 16)

	g := rng.New(1234)
	for i := 0; i < stationaryN; i++ {
		m.Ingest(stationaryFrame(g), i)
	}
	stationaryBatches := auditor.Batches()
	if stationaryBatches != stationaryN/driftAuditEvery {
		t.Fatalf("stationary phase produced %d audit batches, want %d",
			stationaryBatches, stationaryN/driftAuditEvery)
	}
	if auditor.Alarms() != 0 {
		t.Fatalf("stationary stream raised %d alarms: %+v", auditor.Alarms(), alarms)
	}

	for i := 0; i < driftN; i++ {
		m.Ingest(driftFrame(g), stationaryN+i)
	}
	if len(alarms) == 0 {
		t.Fatal("injected drift raised no alarm")
	}
	first := alarms[0]
	if first.Signal != "residual" {
		t.Fatalf("first alarm signal = %q, want residual", first.Signal)
	}
	if first.Batch <= stationaryBatches {
		t.Fatalf("alarm batch %d predates the drift (stationary ended at batch %d)",
			first.Batch, stationaryBatches)
	}
	if detectDelay := first.Batch - stationaryBatches; detectDelay > 6 {
		t.Fatalf("drift detected only after %d audit batches, want ≤ 6", detectDelay)
	}

	evs := journal.Query(audit.Query{Kind: audit.KindAlarm})
	if len(evs) == 0 {
		t.Fatal("alarm was not journaled")
	}
	if evs[0].Seq != first.Seq || evs[0].Get("batch", -1) != float64(first.Batch) {
		t.Fatalf("journaled alarm %+v does not match callback %+v", evs[0], first)
	}

	// The alarm must be visible over the /audit endpoint.
	rec := httptest.NewRecorder()
	audit.Handler(auditor, nil).ServeHTTP(rec, httptest.NewRequest("GET", "/audit?kind=alarm", nil))
	var resp struct {
		Alarms int64         `json:"alarms"`
		Events []audit.Event `json:"events"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("/audit returned invalid JSON: %v", err)
	}
	if resp.Alarms != auditor.Alarms() || len(resp.Events) == 0 {
		t.Fatalf("/audit served alarms=%d events=%d, want %d/≥1", resp.Alarms, len(resp.Events), auditor.Alarms())
	}
	for _, ev := range resp.Events {
		if ev.Kind != audit.KindAlarm {
			t.Fatalf("/audit?kind=alarm leaked a %q event", ev.Kind)
		}
	}
}

// TestChaosStationaryStreamStaysSilent is the control: the full stream
// length with no injected shift must produce zero alarms end to end.
func TestChaosStationaryStreamStaysSilent(t *testing.T) {
	auditor, journal := driftAuditor(nil)
	m := pipeline.NewMonitor(driftConfig(auditor), 16)
	g := rng.New(1234)
	for i := 0; i < 160; i++ {
		m.Ingest(stationaryFrame(g), i)
	}
	if auditor.Alarms() != 0 {
		t.Fatalf("stationary control run raised %d alarms", auditor.Alarms())
	}
	if evs := journal.Query(audit.Query{Kind: audit.KindAlarm}); len(evs) != 0 {
		t.Fatalf("stationary control run journaled alarms: %+v", evs)
	}
	// Certificates still flowed on cadence.
	if auditor.Batches() != 40 {
		t.Fatalf("control run audited %d batches, want 40", auditor.Batches())
	}
	if evs := journal.Query(audit.Query{Kind: audit.KindCertificate}); len(evs) != 5 {
		t.Fatalf("control run journaled %d certificates, want 5 (every 8 of 40 batches)", len(evs))
	}
}

// TestBatchPipelineAuditPoint: Process feeds exactly one audit
// observation per run, covering every row it ingested — also when the
// engine rejects a frame with a NaN pixel.
func TestBatchPipelineAuditPoint(t *testing.T) {
	for _, nan := range []bool{false, true} {
		auditor, _ := driftAuditor(nil)
		g := rng.New(2)
		x := mat.RandGaussian(60, 12, g)
		frames := make([]*imgproc.Image, x.RowsN)
		for i := range frames {
			frames[i] = &imgproc.Image{W: 12, H: 1, Pix: x.Row(i)}
		}
		rows := 60
		if nan {
			frames[17] = &imgproc.Image{W: 12, H: 1, Pix: append([]float64(nil), x.Row(17)...)}
			frames[17].Pix[3] = math.NaN()
			rows--
		}
		cfg := pipeline.Config{
			Sketch:    sketch.Config{Ell0: 6, Seed: 3},
			LatentDim: 4,
			Audit:     auditor,
		}
		res := pipeline.Process(frames, cfg)
		if auditor.Batches() != 1 {
			t.Fatalf("nan=%v: batch run produced %d audit points, want 1", nan, auditor.Batches())
		}
		cert := auditor.LastCertificate()
		if cert.Rows != rows || cert.Dim != 12 {
			t.Fatalf("nan=%v: audit certificate %d×%d, want %d×12", nan, cert.Rows, cert.Dim, rows)
		}
		if len(res.Tags) != rows {
			t.Fatalf("nan=%v: %d snapshot rows, want %d", nan, len(res.Tags), rows)
		}
		wantMean := 0.0
		for _, r := range res.Residuals {
			wantMean += r
		}
		wantMean /= float64(len(res.Residuals))
		if math.IsNaN(wantMean) {
			t.Fatalf("nan=%v: run produced NaN residuals", nan)
		}
	}
}
