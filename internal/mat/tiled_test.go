package mat

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"arams/internal/rng"
)

// relDiff returns the worst elementwise deviation between a and b,
// relative to b's largest magnitude — the tiled kernels reassociate the
// k-sum, so agreement is to relative (not absolute) precision.
func relDiff(a, b *Matrix) float64 {
	var worst, scale float64
	for i := 0; i < a.RowsN; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if d := math.Abs(ra[j] - rb[j]); d > worst {
				worst = d
			}
			if m := math.Abs(rb[j]); m > scale {
				scale = m
			}
		}
	}
	if scale == 0 {
		return worst
	}
	return worst / scale
}

// Shapes chosen to stress every tail of the tiled kernels: single rows
// (no 2×2 pair at all), odd row counts (one tail row after pairing),
// inner dimensions just past the k-panel (1024) and j-panel (2048)
// widths, FD-rotation shapes (2ℓ×d wide), and tall-skinny.
var tiledShapes = []struct{ m, k, n int }{
	{1, 7, 5},
	{1, 4096, 1},
	{3, 1025, 9},
	{7, 3, 2},
	{16, 1031, 16},
	{64, 4096, 64},
	{5, 2049, 3},
	{129, 2, 129},
	{2, 2, 2},
	{31, 17, 29},
}

func TestTiledMulToMatchesReference(t *testing.T) {
	g := rng.New(201)
	for _, sh := range tiledShapes {
		a := RandGaussian(sh.m, sh.k, g)
		b := RandGaussian(sh.k, sh.n, g)
		got := New(sh.m, sh.n)
		MulTo(got, a, b)
		want := New(sh.m, sh.n)
		RefMulTo(want, a, b)
		if d := relDiff(got, want); d > 1e-12 {
			t.Errorf("MulTo %dx%dx%d deviates from reference by %g", sh.m, sh.k, sh.n, d)
		}
	}
}

func TestTiledMulABtMatchesReference(t *testing.T) {
	g := rng.New(202)
	for _, sh := range tiledShapes {
		a := RandGaussian(sh.m, sh.k, g)
		b := RandGaussian(sh.n, sh.k, g)
		got := New(sh.m, sh.n)
		MulABtTo(got, a, b)
		want := RefMulABt(a, b)
		if d := relDiff(got, want); d > 1e-12 {
			t.Errorf("MulABtTo %dx%dx%d deviates from reference by %g", sh.m, sh.k, sh.n, d)
		}
	}
}

func TestTiledGramMatchesReference(t *testing.T) {
	g := rng.New(203)
	for _, sh := range tiledShapes {
		a := RandGaussian(sh.m, sh.k, g)
		got := New(sh.m, sh.m)
		GramTo(got, a)
		want := RefGram(a)
		if d := relDiff(got, want); d > 1e-12 {
			t.Errorf("GramTo %dx%d deviates from reference by %g", sh.m, sh.k, d)
		}
		for i := 0; i < sh.m; i++ {
			for j := 0; j < sh.m; j++ {
				if got.At(i, j) != got.At(j, i) {
					t.Fatalf("GramTo %dx%d not exactly symmetric at (%d,%d)", sh.m, sh.k, i, j)
				}
			}
		}
	}
}

func TestSVDGramToMatchesReference(t *testing.T) {
	g := rng.New(204)
	for _, sh := range []struct{ m, d int }{{1, 9}, {5, 300}, {16, 1031}, {64, 512}} {
		a := RandGaussian(sh.m, sh.d, g)
		_, sRef, vtRef := RefSVDGram(a)
		vt := New(sh.m, sh.d)
		s := SVDGramTo(a, nil, vt)
		for i := range s {
			if math.Abs(s[i]-sRef[i]) > 1e-9*(1+sRef[0]) {
				t.Fatalf("m=%d d=%d: σ[%d] = %g, reference %g", sh.m, sh.d, i, s[i], sRef[i])
			}
		}
		// Singular vectors are sign-ambiguous; well-separated Gaussian
		// spectra let us compare row alignment instead.
		for i := range s {
			if s[i] <= 1e-6*(1+sRef[0]) {
				continue
			}
			dot := Dot(vt.Row(i), vtRef.Row(i))
			if math.Abs(math.Abs(dot)-1) > 1e-6 {
				t.Fatalf("m=%d d=%d: vt row %d misaligned with reference (|dot| = %g)", sh.m, sh.d, i, math.Abs(dot))
			}
		}
	}
}

func TestSVDGramToReusesCallerStorage(t *testing.T) {
	g := rng.New(205)
	a := RandGaussian(8, 64, g)
	vt := New(8, 64)
	sigma := make([]float64, 0, 8)
	got := SVDGramTo(a, sigma, vt)
	if &got[:1][0] != &sigma[:1][0] {
		t.Fatal("SVDGramTo reallocated sigma despite sufficient capacity")
	}
}

// TestSVDSameBitsAtEveryPoolWidth pins the one-sided Jacobi SVD's bits
// on a shape for which a pool wider than one once selected a round-robin
// pair ordering (n ≥ 48, m·n ≥ 2¹⁸) that agreed with the cyclic one
// only to 1e-9: the cyclic ordering is the only one, so Fig. 1's exact
// reference and the sketch tests' Jacobi cross-checks do not depend on
// the core count.
func TestSVDSameBitsAtEveryPoolWidth(t *testing.T) {
	const want = "81980b4a0a537db0f272c8a6958a018e8597513e2e66a67e51d4357213b04c20"
	a := RandGaussian(5462, 48, rng.New(207))
	for _, width := range []int{1, 2} {
		var u, vt *Matrix
		var s []float64
		withPoolWidth(width, func() { u, s, vt = SVD(a) })
		h := sha256.New()
		for _, m := range []*Matrix{u, FromData(1, len(s), s), vt} {
			for i := 0; i < m.RowsN; i++ {
				for _, v := range m.Row(i) {
					h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("pool width %d: SVD digest %s, want %s", width, got, want)
		}
	}
}
