package lcls

import (
	"bytes"
	"math"
	"testing"

	"arams/internal/imgproc"
)

func TestBeamGeneratorDeterministic(t *testing.T) {
	a := NewBeamGenerator(BeamConfig{Seed: 1}).Generate(5)
	b := NewBeamGenerator(BeamConfig{Seed: 1}).Generate(5)
	for i := range a {
		for p := range a[i].Image.Pix {
			if a[i].Image.Pix[p] != b[i].Image.Pix[p] {
				t.Fatalf("frame %d differs between same-seed generators", i)
			}
		}
	}
}

func TestBeamFrameBasics(t *testing.T) {
	bg := NewBeamGenerator(BeamConfig{Size: 48, Seed: 2})
	for i := 0; i < 20; i++ {
		f := bg.Next()
		if f.Image.W != 48 || f.Image.H != 48 {
			t.Fatalf("frame %d wrong size", i)
		}
		if f.Image.Sum() <= 0 {
			t.Fatalf("frame %d has no intensity", i)
		}
		mx := f.Image.Max()
		if mx > 1.2 {
			t.Fatalf("frame %d peak %v far above normalized 1", i, mx)
		}
		for _, v := range f.Image.Pix {
			if v < 0 || math.IsNaN(v) {
				t.Fatalf("frame %d has invalid pixel %v", i, v)
			}
		}
	}
}

func TestBeamCOMTracksParams(t *testing.T) {
	// Noise-free fundamental-mode frames: the image center of mass
	// must match the generative center.
	bg := NewBeamGenerator(BeamConfig{
		Size: 64, Jitter: 5, ModeProb: -1, ExoticFrac: 0, NoiseLevel: -1, Seed: 3,
	})
	for i := 0; i < 10; i++ {
		f := bg.Next()
		st := imgproc.ComputeStats(f.Image)
		if math.Abs(st.OffsetX-f.Params.CenterX) > 0.5 || math.Abs(st.OffsetY-f.Params.CenterY) > 0.5 {
			t.Fatalf("frame %d: measured offset (%v,%v) vs params (%v,%v)",
				i, st.OffsetX, st.OffsetY, f.Params.CenterX, f.Params.CenterY)
		}
	}
}

func TestBeamCircularityTracksParams(t *testing.T) {
	bg := NewBeamGenerator(BeamConfig{
		Size: 64, Jitter: 0.001, ElongSigma: 0.5, ModeProb: -1, NoiseLevel: -1, Seed: 4,
	})
	for i := 0; i < 10; i++ {
		f := bg.Next()
		st := imgproc.ComputeStats(f.Image)
		want := f.Params.Circularity()
		if math.Abs(st.Circularity-want) > 0.1 {
			t.Fatalf("frame %d: measured circularity %v vs params %v", i, st.Circularity, want)
		}
	}
}

func TestHigherModesHaveLobes(t *testing.T) {
	// TEM01 has a nodal line: intensity at the exact center ~0.
	p := BeamParams{WidthX: 8, WidthY: 8, ModeM: 1}
	im := renderBeam(64, p)
	center := im.At(31, 31) // node of H1 along x
	if center > 0.05 {
		t.Fatalf("TEM10 center intensity %v, expected near-zero node", center)
	}
	if im.Max() < 0.99 {
		t.Fatalf("peak not normalized: %v", im.Max())
	}
}

func TestHermitePolynomials(t *testing.T) {
	cases := []struct {
		n    int
		x, y float64
	}{
		{0, 1.5, 1}, {1, 1.5, 3}, {2, 1.5, 7}, {3, 2, 40},
	}
	for _, c := range cases {
		if got := hermite(c.n, c.x); math.Abs(got-c.y) > 1e-12 {
			t.Errorf("H_%d(%v) = %v, want %v", c.n, c.x, got, c.y)
		}
	}
}

func TestExoticFraction(t *testing.T) {
	bg := NewBeamGenerator(BeamConfig{ExoticFrac: 0.2, Seed: 5})
	exotic := 0
	const n = 500
	for i := 0; i < n; i++ {
		if bg.Next().Params.Exotic {
			exotic++
		}
	}
	if exotic < n*10/100 || exotic > n*30/100 {
		t.Fatalf("exotic count %d of %d, want ~20%%", exotic, n)
	}
}

func TestDiffractionClasses(t *testing.T) {
	dg := NewDiffractionGenerator(DiffractionConfig{Size: 64, Seed: 6})
	if dg.NumClasses() != 4 {
		t.Fatalf("default classes = %d", dg.NumClasses())
	}
	frames, labels := dg.Generate(50)
	if len(frames) != 50 || len(labels) != 50 {
		t.Fatal("Generate length mismatch")
	}
	seen := map[int]bool{}
	for i, f := range frames {
		if f.Params.Class != labels[i] {
			t.Fatal("label mismatch")
		}
		seen[labels[i]] = true
		if f.Image.Sum() <= 0 || f.Image.Max() > 1.5 {
			t.Fatalf("frame %d intensity out of range", i)
		}
	}
	if len(seen) != 4 {
		t.Fatalf("only %d classes appeared in 50 draws", len(seen))
	}
}

func TestDiffractionQuadrantWeights(t *testing.T) {
	// A top-heavy class must put most ring intensity in the top half.
	dg := NewDiffractionGenerator(DiffractionConfig{
		Size: 96, Classes: [][4]float64{{1, 1, 0.1, 0.1}}, NoiseLevel: -1, Seed: 7,
	})
	f := dg.NextClass(0)
	var top, bottom float64
	for y := 0; y < 96; y++ {
		for x := 0; x < 96; x++ {
			if y < 48 {
				top += f.Image.At(x, y)
			} else {
				bottom += f.Image.At(x, y)
			}
		}
	}
	if top < 4*bottom {
		t.Fatalf("top %v not dominant over bottom %v", top, bottom)
	}
}

func TestDiffractionRingRadius(t *testing.T) {
	dg := NewDiffractionGenerator(DiffractionConfig{Size: 128, RadiusJit: -1, NoiseLevel: -1, Seed: 8})
	f := dg.NextClass(0)
	// Mean radius of bright pixels should sit near cfg radius (128/3).
	var wr, w float64
	c := 63.5
	for y := 0; y < 128; y++ {
		for x := 0; x < 128; x++ {
			v := f.Image.At(x, y)
			if v > 0.1 {
				r := math.Hypot(float64(x)-c, float64(y)-c)
				wr += v * r
				w += v
			}
		}
	}
	if w == 0 {
		t.Fatal("no ring rendered")
	}
	got := wr / w
	if math.Abs(got-128.0/3) > 2 {
		t.Fatalf("ring radius %v, want ~%v", got, 128.0/3)
	}
}

func TestQuadrantMapping(t *testing.T) {
	cases := []struct {
		dx, dy float64
		want   int
	}{
		{1, -1, 0}, {-1, -1, 1}, {-1, 1, 2}, {1, 1, 3},
	}
	for _, c := range cases {
		if got := quadrant(c.dx, c.dy); got != c.want {
			t.Errorf("quadrant(%v,%v) = %d, want %d", c.dx, c.dy, got, c.want)
		}
	}
}

func TestEventBuilderAssembles(t *testing.T) {
	eb := NewEventBuilder([]string{"a", "b"}, 0)
	im := imgproc.NewImage(2, 2)
	if _, done := eb.Push(Readout{PulseID: 1, Detector: "a", Image: im}); done {
		t.Fatal("incomplete event reported done")
	}
	ev, done := eb.Push(Readout{PulseID: 1, Detector: "b", Image: im})
	if !done || ev.PulseID != 1 || len(ev.Images) != 2 {
		t.Fatalf("event not assembled: %+v done=%v", ev, done)
	}
	if eb.Built() != 1 || eb.Pending() != 0 {
		t.Fatalf("Built=%d Pending=%d", eb.Built(), eb.Pending())
	}
}

func TestEventBuilderWindowExpiry(t *testing.T) {
	eb := NewEventBuilder([]string{"a", "b"}, 5)
	im := imgproc.NewImage(1, 1)
	eb.Push(Readout{PulseID: 1, Detector: "a", Image: im}) // will never complete
	for p := uint64(2); p <= 10; p++ {
		eb.Push(Readout{PulseID: p, Detector: "a", Image: im})
		eb.Push(Readout{PulseID: p, Detector: "b", Image: im})
	}
	if eb.Dropped() == 0 {
		t.Fatal("stale pending event never expired")
	}
	if eb.Built() != 9 {
		t.Fatalf("Built = %d, want 9", eb.Built())
	}
}

func TestEventBuilderIgnoresUnknownDetector(t *testing.T) {
	eb := NewEventBuilder([]string{"a"}, 0)
	im := imgproc.NewImage(1, 1)
	if _, done := eb.Push(Readout{PulseID: 1, Detector: "zzz", Image: im}); done {
		t.Fatal("unknown detector completed an event")
	}
	if eb.Pending() != 0 {
		t.Fatal("unknown detector left pending state")
	}
}

func TestStreamJumbledStillBuilds(t *testing.T) {
	beam := NewBeamGenerator(BeamConfig{Size: 16, Seed: 9})
	diff := NewDiffractionGenerator(DiffractionConfig{Size: 16, Seed: 10})
	readouts, beams, diffs := Stream(StreamConfig{Pulses: 50, Jumble: 8, Seed: 11}, beam, diff)
	if len(beams) != 50 || len(diffs) != 50 {
		t.Fatal("ground truth lengths wrong")
	}
	eb := NewEventBuilder([]string{BeamDetector, AreaDetector}, 100)
	complete := 0
	for _, r := range readouts {
		if _, done := eb.Push(r); done {
			complete++
		}
	}
	if complete != 50 {
		t.Fatalf("built %d events, want 50", complete)
	}
}

func TestStreamWithDrops(t *testing.T) {
	beam := NewBeamGenerator(BeamConfig{Size: 8, Seed: 12})
	diff := NewDiffractionGenerator(DiffractionConfig{Size: 8, Seed: 13})
	readouts, _, _ := Stream(StreamConfig{Pulses: 200, DropProb: 0.1, Seed: 14}, beam, diff)
	if len(readouts) >= 400 || len(readouts) < 300 {
		t.Fatalf("drop rate off: %d readouts of 400", len(readouts))
	}
	eb := NewEventBuilder([]string{BeamDetector, AreaDetector}, 50)
	for _, r := range readouts {
		eb.Push(r)
	}
	if eb.Built() == 0 {
		t.Fatal("no events built despite most readouts surviving")
	}
	if eb.Built() == 200 {
		t.Fatal("all events built despite dropped readouts")
	}
}

func TestRunRoundTrip(t *testing.T) {
	bg := NewBeamGenerator(BeamConfig{Size: 12, Seed: 15})
	run := &Run{Experiment: "xppc00121", RunNumber: 510, Detector: BeamDetector}
	for i := 0; i < 7; i++ {
		run.Append(bg.Next().Image, i%3)
	}
	var buf bytes.Buffer
	if _, err := run.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRun(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Experiment != "xppc00121" || got.RunNumber != 510 || got.Detector != BeamDetector {
		t.Fatalf("header mismatch: %+v", got)
	}
	if got.Len() != 7 || got.Width != 12 || got.Height != 12 {
		t.Fatalf("shape mismatch: %d frames %dx%d", got.Len(), got.Width, got.Height)
	}
	for i := range run.Frames {
		if got.Labels[i] != run.Labels[i] {
			t.Fatalf("label %d mismatch", i)
		}
		for p := range run.Frames[i].Pix {
			if got.Frames[i].Pix[p] != run.Frames[i].Pix[p] {
				t.Fatalf("frame %d pixel %d mismatch", i, p)
			}
		}
	}
}

func TestReadRunRejectsGarbage(t *testing.T) {
	if _, err := ReadRun(bytes.NewReader([]byte("not a run file......"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadRun(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestRunAppendShapeMismatchPanics(t *testing.T) {
	run := &Run{}
	run.Append(imgproc.NewImage(4, 4), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch append did not panic")
		}
	}()
	run.Append(imgproc.NewImage(5, 5), 0)
}
