package pipeline_test

import (
	"math"
	"path/filepath"
	"testing"
	"time"

	"arams/internal/audit"
	"arams/internal/ckpt"
	"arams/internal/engine"
	"arams/internal/imgproc"
	"arams/internal/lcls"
	"arams/internal/pipeline"
	"arams/internal/sketch"
)

// beamImages is a seeded beam-profile stream of n 32×32 frames.
func beamImages(n int, seed uint64) []*imgproc.Image {
	out := make([]*imgproc.Image, n)
	for i, f := range lcls.NewBeamGenerator(lcls.BeamConfig{Size: 32, Seed: seed}).Generate(n) {
		out[i] = f.Image
	}
	return out
}

func untimed(c audit.Certificate) audit.Certificate {
	c.Time = time.Time{} // when it was cut, not what it certifies
	return c
}

// TestCertificateReadingsAgree: at 1, 2 and 4 shards the live
// certificate, the composition of the shard backends' own certificates
// and the certificate composed from the monitor's checkpoint state are
// one statement, so a stream's certificate does not change value when it
// is checkpointed or hibernated.
func TestCertificateReadingsAgree(t *testing.T) {
	ims := beamImages(200, 61)
	for _, shards := range []int{1, 2, 4} {
		scfg := sketch.Config{Ell0: 8, Beta: 0.9, Seed: 3}
		backends := make([]engine.Backend, shards)
		for i := range backends {
			backends[i] = engine.NewLocalBackend(engine.ShardSketchConfig(scfg, i))
		}
		m := pipeline.NewMonitor(pipeline.Config{
			Pre:         imgproc.Preprocessor{Normalize: true},
			Sketch:      scfg,
			FrameBudget: -1,
			Backends:    backends,
		}, 64)
		for lo := 0; lo < len(ims); lo += 24 {
			m.IngestBatch(ims[lo:min(len(ims), lo+24)], nil)
		}
		live := untimed(m.Engine().Certificate())
		certs := make([]audit.Certificate, shards)
		for i, b := range backends {
			c, err := b.Certificate()
			if err != nil {
				t.Fatal(err)
			}
			certs[i] = c
		}
		if composed := untimed(audit.Compose(certs...)); live != composed {
			t.Fatalf("%d shards: live certificate %+v, composed from the shards %+v", shards, live, composed)
		}
		if checkpointed := m.State().Certificate(); live != checkpointed {
			t.Fatalf("%d shards: live certificate %+v, composed from the state %+v", shards, live, checkpointed)
		}
		if live.Rows != len(ims) {
			t.Fatalf("%d shards: certificate covers %d rows, want %d", shards, live.Rows, len(ims))
		}
		if got := m.Engine().Reconciles(); got != 0 {
			t.Fatalf("%d shards: reading the certificates merged %d times", shards, got)
		}
		m.Engine().Close()
	}
}

// TestNonFinitePixelKeepsStreamRestorable: one NaN or +Inf pixel in
// frame 40 of a normalized beam stream used to turn the certificate's
// ledgers into NaN (one shard) or drop a whole shard from every merge
// (two), and the checkpoint it wrote could not be restored. The frame
// is now rejected at ingest: the certificate stays finite and covers
// every ingested frame, and Save → Load → NewMonitorFromState resumes
// the stream.
func TestNonFinitePixelKeepsStreamRestorable(t *testing.T) {
	const n, bad = 256, 40
	for _, shards := range []int{1, 2} {
		for _, pixel := range []float64{math.NaN(), math.Inf(1)} {
			cfg := pipeline.Config{
				Pre:         imgproc.Preprocessor{Normalize: true},
				Sketch:      sketch.Config{Ell0: 8, Beta: 1, Seed: 7},
				Shards:      shards,
				FrameBudget: -1,
			}
			ims := beamImages(n, 62)
			ims[bad].Pix[100] = pixel
			m := pipeline.NewMonitor(cfg, 64)
			for lo := 0; lo < n; lo += 32 {
				m.IngestBatch(ims[lo:lo+32], nil)
			}
			if got := m.Ingested(); got != n-1 {
				t.Fatalf("%d shards, pixel %v: %d frames ingested, want %d", shards, pixel, got, n-1)
			}
			c := m.Engine().Certificate()
			if c.Rows != m.Ingested() || math.IsNaN(c.ShrinkMass) || math.IsInf(c.ShrinkMass, 0) ||
				math.IsNaN(c.FrobMass) || math.IsInf(c.FrobMass, 0) {
				t.Fatalf("%d shards, pixel %v: certificate %+v for %d frames", shards, pixel, c, m.Ingested())
			}
			path := filepath.Join(t.TempDir(), "stream.ckpt")
			if err := ckpt.Save(path, m.State()); err != nil {
				t.Fatalf("%d shards, pixel %v: Save: %v", shards, pixel, err)
			}
			loaded, err := ckpt.Load(path)
			if err != nil {
				t.Fatalf("%d shards, pixel %v: Load: %v", shards, pixel, err)
			}
			st, ok := loaded.(*pipeline.MonitorState)
			if !ok {
				t.Fatalf("%d shards, pixel %v: loaded %T", shards, pixel, loaded)
			}
			r, err := pipeline.NewMonitorFromState(cfg, st)
			if err != nil {
				t.Fatalf("%d shards, pixel %v: restore: %v", shards, pixel, err)
			}
			if got := untimed(r.Engine().Certificate()); got != untimed(c) {
				t.Fatalf("%d shards, pixel %v: restored certificate %+v, want %+v", shards, pixel, got, c)
			}
			m.Engine().Close()
			r.Engine().Close()
		}
	}
}
