package tenant_test

import (
	"math"
	"testing"
	"time"

	"arams/internal/audit"
	"arams/internal/imgproc"
	"arams/internal/mat"
	"arams/internal/pipeline"
	"arams/internal/tenant"
)

// stackedShards stacks every occupied buffer row of every shard of a
// monitor state into one matrix: the sketch Σ BᵢᵀBᵢ that a composed
// certificate describes, with no merge rotation applied.
func stackedShards(st *pipeline.MonitorState) *mat.Matrix {
	var rows [][]float64
	for _, s := range st.Shards {
		if s == nil {
			continue
		}
		fd := s.FD
		if s.RankAdaptive != nil {
			fd = &s.RankAdaptive.FD
		}
		for i := 0; i < len(fd.Kept); i += fd.D {
			rows = append(rows, fd.Kept[i:i+fd.D])
		}
		for i := 0; i < len(fd.Incoming); i += fd.D {
			row := make([]float64, fd.D)
			mat.Widen(row, fd.Incoming[i:i+fd.D])
			rows = append(rows, row)
		}
	}
	return mat.FromRows(rows)
}

func untimed(c audit.Certificate) audit.Certificate {
	c.Time = time.Time{} // when it was cut, not what it certifies
	return c
}

// appendAll feeds frames to a tenant, tagged by index, and drains it.
func appendAll(t *testing.T, r *tenant.Registry, id string, frames []*imgproc.Image, from int) {
	t.Helper()
	for i, im := range frames {
		if err := r.Append(id, im, from+i); err != nil {
			t.Fatalf("Append frame %d: %v", from+i, err)
		}
	}
	if err := r.Drain(id); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// TestCertificateSameResidentAndHibernated: at 1, 2 and 4 shards a
// tenant's certificate is the one a plain monitor on the same stream
// reports, and it keeps its value when the tenant hibernates — the
// resident certificate composes the live shards, the hibernated one the
// checkpointed shards, and both are the same statement.
func TestCertificateSameResidentAndHibernated(t *testing.T) {
	const n, w, h = 48, 6, 6
	frames := tenantFrames(n, w, h, 311)
	for _, shards := range []int{1, 2, 4} {
		pcfg := tenantPipeline()
		pcfg.Shards = shards
		control := pipeline.NewMonitor(pcfg, 16)
		for i, im := range frames {
			control.Ingest(im, i)
		}
		want := untimed(control.Engine().Certificate())
		control.Engine().Close()

		cfg := tenantConfig(t.TempDir())
		cfg.Pipeline = pcfg
		r, err := tenant.Open(cfg)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		appendAll(t, r, "amo", frames, 0)
		resident, err := r.Certificate("amo")
		if err != nil {
			t.Fatalf("%d shards: resident Certificate: %v", shards, err)
		}
		if got := untimed(resident); got != want {
			t.Fatalf("%d shards: resident certificate %+v, a plain monitor's %+v", shards, got, want)
		}
		if err := r.Hibernate("amo"); err != nil {
			t.Fatalf("%d shards: Hibernate: %v", shards, err)
		}
		hibernated, err := r.Certificate("amo")
		if err != nil {
			t.Fatalf("%d shards: hibernated Certificate: %v", shards, err)
		}
		if got := untimed(hibernated); got != want {
			t.Fatalf("%d shards: hibernated certificate %+v, resident %+v", shards, got, want)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNonFiniteFrameHibernateRestore: a tenant fed a frame with a NaN
// pixel, or with a 1e39 one that has no float32 copy for the window,
// hibernates and restores — the frame was rejected at ingest, so the
// checkpoint holds finite ledgers and a finite window — and its
// certificate covers every frame it kept, before and after the restore.
func TestNonFiniteFrameHibernateRestore(t *testing.T) {
	const n, w, h = 64, 6, 6
	for _, pixel := range []float64{math.NaN(), 1e39} {
		frames := tenantFrames(n, w, h, 313)
		frames[20].Pix[5] = pixel
		r, err := tenant.Open(tenantConfig(t.TempDir()))
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		appendAll(t, r, "cxi", frames[:n/2], 0)
		if err := r.Hibernate("cxi"); err != nil {
			t.Fatalf("pixel %v: Hibernate: %v", pixel, err)
		}
		appendAll(t, r, "cxi", frames[n/2:], n/2) // restores the tenant
		cert, err := r.Certificate("cxi")
		if err != nil {
			t.Fatalf("pixel %v: Certificate after restore: %v", pixel, err)
		}
		m, release, err := r.Monitor("cxi")
		if err != nil {
			t.Fatalf("pixel %v: Monitor: %v", pixel, err)
		}
		ingested := m.Ingested()
		st := m.State()
		release()
		if ingested != n-1 || cert.Rows != ingested {
			t.Fatalf("pixel %v: %d frames ingested, certificate covers %d; want %d for both", pixel, ingested, cert.Rows, n-1)
		}
		if math.IsNaN(cert.ShrinkMass) || math.IsNaN(cert.FrobMass) {
			t.Fatalf("pixel %v: certificate %+v is not finite", pixel, cert)
		}
		for i, f := range st.Frames {
			for _, v := range f.Vec {
				if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
					t.Fatalf("pixel %v: window frame %d holds %v", pixel, i, v)
				}
			}
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
