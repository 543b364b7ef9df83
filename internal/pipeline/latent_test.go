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
	x := mat.FromRows(w.Rows)

	// The reference stream. Every row reaches the sketch: the engine
	// feeds the sampler one row at a time and ⌈0.9·1⌉ = 1.
	buf, next := mat.New(2*ell, x.ColsN), 0
	decompose := func() (sigma2 []float64, vt *mat.Matrix) {
		rows := buf.Rows(0, next)
		sigma2, u := mat.RefEigSym(mat.Gram(rows))
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
