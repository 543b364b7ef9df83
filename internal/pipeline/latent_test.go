package pipeline

import (
	"math"
	"testing"

	"arams/internal/imgproc"
	"arams/internal/lcls"
	"arams/internal/mat"
	"arams/internal/obs"
	"arams/internal/pca"
	"arams/internal/sketch"
	"arams/internal/umap"
)

// TestGoldenWindowLatentMatchesJacobiBackedStream is the tolerance
// behind TestGoldenSnapshotDigests' beam case. UMAP's SGD is chaotic in
// the last bits of its input, so an eigensolver change moves that
// digest whatever it does; what can be held is UMAP's input. The golden
// stream goes through the monitor, and again through a Frequent
// Directions loop whose every decomposition is Gram + mat.RefEigSym —
// the cyclic Jacobi solver every rotation ran before tridiagonal QL —
// and the two PCA latents of the golden window must agree, component by
// component up to its sign, to 1e-9 of the latent's scale.
func TestGoldenWindowLatentMatchesJacobiBackedStream(t *testing.T) {
	const ell, k, window, n, batch = 25, 12, 512, 640, 32
	cfg := Config{
		Pre:         imgproc.Preprocessor{Normalize: true},
		Sketch:      sketch.Config{Ell0: ell, Beta: 0.9, Seed: 1},
		LatentDim:   k,
		Shards:      1,
		FrameBudget: -1,
	}
	ims := make([]*imgproc.Image, n)
	for i, f := range lcls.NewBeamGenerator(lcls.BeamConfig{Size: 64, Seed: 20241001}).Generate(n) {
		ims[i] = f.Image
	}
	m := NewMonitor(cfg, window)
	for lo := 0; lo < n; lo += batch {
		m.IngestBatch(ims[lo:lo+batch], nil)
	}
	w := m.eng.ReadWindow(k, obs.SpanContext{})
	if w.Basis.RowsN != k {
		t.Fatalf("basis has %d rows, want %d", w.Basis.RowsN, k)
	}
	latent := pca.NewProjector(w.Basis).ProjectRows(w.Rows)
	x := mat.New(len(w.Rows), len(w.Rows[0]))
	for i, row := range w.Rows {
		mat.Widen(x.Row(i), row)
	}

	// The reference stream. Every row reaches the sketch: the engine
	// feeds the sampler one row at a time and ⌈0.9·1⌉ = 1.
	buf, next := mat.New(2*ell, x.ColsN), 0
	decompose := func() (sigma2 []float64, vt *mat.Matrix) {
		rows := buf.Rows(0, next)
		gram := mat.New(next, next)
		mat.GramTo(gram, rows)
		sigma2, u := mat.RefEigSym(gram)
		vt = mat.Mul(u.T(), rows)
		for i, s2 := range sigma2 {
			if s2 > 0 {
				mat.ScaleTo(vt.Row(i), 1/math.Sqrt(s2), vt.Row(i))
			}
		}
		return sigma2, vt
	}
	for _, im := range ims {
		if next == 2*ell {
			sigma2, vt := decompose()
			buf.Zero()
			for i := 0; i < ell && sigma2[i] > sigma2[ell]; i++ {
				mat.ScaleTo(buf.Row(i), math.Sqrt(sigma2[i]-sigma2[ell]), vt.Row(i))
			}
			next = ell
		}
		copy(buf.Row(next), cfg.Pre.ApplyVec(im, nil))
		next++
	}
	_, vt := decompose()
	ref := mat.MulABt(x, vt.Rows(0, k))

	scale := latent.MaxAbs()
	for j := 0; j < k; j++ {
		var dot float64
		for i := 0; i < latent.RowsN; i++ {
			dot += latent.At(i, j) * ref.At(i, j)
		}
		sign := math.Copysign(1, dot)
		for i := 0; i < latent.RowsN; i++ {
			if d := math.Abs(latent.At(i, j) - sign*ref.At(i, j)); !(d <= 1e-9*scale) {
				t.Fatalf("frame %d component %d: latent %g vs Jacobi-backed %g (scale %g)", i, j, latent.At(i, j), sign*ref.At(i, j), scale)
			}
		}
	}
}

// goldenStream is one of the two streams the golden snapshot digests
// pin (golden_test.go) and the float32 window's tolerance tests below
// run: shard count and window of its monitor (goldenConfig), its images,
// and how many of them are ingested before the Snapshot — the rest come
// after it.
type goldenStream struct {
	name           string
	shards, window int
	warm           int
	images         []*imgproc.Image
}

func goldenStreams() []goldenStream {
	beam := lcls.NewBeamGenerator(lcls.BeamConfig{Size: 64, Seed: 20241001}).Generate(640 + 64)
	diffraction, _ := lcls.NewDiffractionGenerator(lcls.DiffractionConfig{Size: 64, Seed: 20241002}).Generate(256 + 32)
	out := []goldenStream{
		{name: "beam-1shard-w512", shards: 1, window: 512, warm: 640},
		{name: "diffraction-2shard-w128", shards: 2, window: 128, warm: 256},
	}
	for _, f := range beam {
		out[0].images = append(out[0].images, f.Image)
	}
	for _, f := range diffraction {
		out[1].images = append(out[1].images, f.Image)
	}
	return out
}

func goldenConfig(shards int) Config {
	return Config{
		Pre:         imgproc.Preprocessor{Normalize: true},
		Sketch:      sketch.Config{Ell0: 25, Beta: 0.9, Seed: 1},
		LatentDim:   12,
		UMAP:        umap.Config{NNeighbors: 10, NEpochs: 80, Seed: 2},
		Shards:      shards,
		FrameBudget: -1,
	}
}

// TestWindowLatentWithinFloat32OfFloat64Frames is the tolerance behind
// the float32 window: on the golden streams, run as
// TestGoldenSnapshotDigests runs them, every element of the
// QuickSnapshot latent is within 2⁻²⁴·‖xᵢ‖₂ of the latent the same basis
// projects from the float64 frames, preprocessed again here from the
// same images. Rounding each element of xᵢ to float32 moves it by at
// most 2⁻²⁴ of itself, so the latent, an inner product with a unit basis
// row, moves by at most 2⁻²⁴·‖xᵢ‖₂.
func TestWindowLatentWithinFloat32OfFloat64Frames(t *testing.T) {
	const batch = 32
	for _, gs := range goldenStreams() {
		cfg := goldenConfig(gs.shards)
		m := NewMonitor(cfg, gs.window)
		for lo := 0; lo < gs.warm; lo += batch {
			m.IngestBatch(gs.images[lo:lo+batch], nil)
		}
		m.Snapshot()
		for lo := gs.warm; lo < len(gs.images); lo += batch {
			m.IngestBatch(gs.images[lo:lo+batch], nil)
		}
		latent := m.QuickSnapshot().Latent
		basis, _ := m.eng.Basis(cfg.LatentDim)
		x := mat.New(gs.window, basis.ColsN)
		for i, im := range gs.images[len(gs.images)-gs.window:] {
			copy(x.Row(i), cfg.Pre.ApplyVec(im, nil))
		}
		ref := mat.MulABt(x, basis)
		worst := 0.0
		for i := 0; i < gs.window; i++ {
			bound := 0x1p-24 * mat.Norm2(x.Row(i))
			for j := 0; j < basis.RowsN; j++ {
				d := math.Abs(latent.At(i, j) - ref.At(i, j))
				if !(d <= bound) {
					t.Fatalf("%s: frame %d component %d: latent %g, from float64 frames %g; |Δ| %g > 2⁻²⁴·‖x‖ = %g",
						gs.name, i, j, latent.At(i, j), ref.At(i, j), d, bound)
				}
				worst = max(worst, d/bound)
			}
		}
		t.Logf("%s: largest |Δ| is %.3f of 2⁻²⁴·‖x‖", gs.name, worst)
		m.Engine().Close()
	}
}

// TestQuickSnapshotAfterSnapshotSameLatent: a Snapshot projects the
// window widened into a matrix, a QuickSnapshot projects the ring's
// float32 vectors where they lie; with no ingest in between, on the
// golden streams, the two latents are the same bits.
func TestQuickSnapshotAfterSnapshotSameLatent(t *testing.T) {
	const batch = 32
	for _, gs := range goldenStreams() {
		m := NewMonitor(goldenConfig(gs.shards), gs.window)
		for lo := 0; lo < gs.warm; lo += batch {
			m.IngestBatch(gs.images[lo:lo+batch], nil)
		}
		full := m.Snapshot().Latent
		quick := m.QuickSnapshot().Latent
		if quick.RowsN != full.RowsN || quick.ColsN != full.ColsN {
			t.Fatalf("%s: quick latent %d×%d, full %d×%d", gs.name, quick.RowsN, quick.ColsN, full.RowsN, full.ColsN)
		}
		for i, v := range full.Data {
			if math.Float64bits(quick.Data[i]) != math.Float64bits(v) {
				t.Fatalf("%s: latent element %d: quick %v, full %v", gs.name, i, quick.Data[i], v)
			}
		}
		m.Engine().Close()
	}
}
