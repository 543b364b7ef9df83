package pipeline_test

import (
	"testing"

	"arams/internal/imgproc"
	"arams/internal/lcls"
	"arams/internal/pipeline"
	"arams/internal/sketch"
	"arams/internal/umap"
)

// BenchmarkProcessBeam times the beam-profile pipeline end to end
// (Fig. 5).
func BenchmarkProcessBeam(b *testing.B) {
	bg := lcls.NewBeamGenerator(lcls.BeamConfig{Size: 32, Seed: 5})
	frames := bg.Generate(150)
	imgs := make([]*imgproc.Image, len(frames))
	for i, f := range frames {
		imgs[i] = f.Image
	}
	cfg := pipeline.Config{
		Pre:    imgproc.Preprocessor{Normalize: true},
		Sketch: sketch.Config{Ell0: 15, Seed: 6},
		UMAP:   umap.Config{NNeighbors: 10, NEpochs: 60, Seed: 7},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pipeline.Process(imgs, cfg)
	}
}

// BenchmarkProcessDiffraction times the diffraction pipeline end to end
// (Fig. 6).
func BenchmarkProcessDiffraction(b *testing.B) {
	dg := lcls.NewDiffractionGenerator(lcls.DiffractionConfig{Size: 32, Seed: 8})
	frames, _ := dg.Generate(150)
	imgs := make([]*imgproc.Image, len(frames))
	for i, f := range frames {
		imgs[i] = f.Image
	}
	cfg := pipeline.Config{
		Pre:    imgproc.Preprocessor{Normalize: true},
		Sketch: sketch.Config{Ell0: 15, Seed: 9},
		UMAP:   umap.Config{NNeighbors: 12, NEpochs: 60, Seed: 10},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pipeline.Process(imgs, cfg)
	}
}

// BenchmarkMonitorIngest times the §VI-B streaming path: event
// building plus online monitor ingest.
func BenchmarkMonitorIngest(b *testing.B) {
	beam := lcls.NewBeamGenerator(lcls.BeamConfig{Size: 32, Seed: 11})
	diff := lcls.NewDiffractionGenerator(lcls.DiffractionConfig{Size: 32, Seed: 12})
	readouts, _, _ := lcls.Stream(lcls.StreamConfig{Pulses: 200, Jumble: 8, Seed: 13}, beam, diff)
	cfg := pipeline.Config{
		Pre:    imgproc.Preprocessor{Normalize: true},
		Sketch: sketch.Config{Ell0: 10, Seed: 14},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		builder := lcls.NewEventBuilder([]string{lcls.BeamDetector, lcls.AreaDetector}, 64)
		monitor := pipeline.NewMonitor(cfg, 128)
		for _, r := range readouts {
			if ev, ok := builder.Push(r); ok {
				monitor.Ingest(ev.Images[lcls.BeamDetector], int(ev.PulseID))
			}
		}
	}
	b.ReportMetric(float64(200*b.N)/b.Elapsed().Seconds(), "frames/s")
}
