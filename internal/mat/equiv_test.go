package mat

import (
	"fmt"
	"math"
	"testing"

	"arams/internal/rng"
)

// bitsEqual reports whether a and b agree in shape and in every bit of
// every element (so −0 ≠ +0 and NaN payloads count).
func bitsEqual(a, b *Matrix) bool {
	if a.RowsN != b.RowsN || a.ColsN != b.ColsN {
		return false
	}
	for i := 0; i < a.RowsN; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if math.Float64bits(ra[j]) != math.Float64bits(rb[j]) {
				return false
			}
		}
	}
	return true
}

func floatsBitsEqual(a, b []float64) bool {
	return bitsEqual(&Matrix{RowsN: 1, ColsN: len(a), Stride: len(a), Data: a},
		&Matrix{RowsN: 1, ColsN: len(b), Stride: len(b), Data: b})
}

// eigCases are the Gram matrices the rotation's eigensolver has to get
// right: the steady-state FD shape, the conditioning the Gram trick
// squares, and the degenerate buffers a detector stream produces.
func eigCases() map[string]*Matrix {
	g := rng.New(301)
	scaled := func(n, d int, scale func(i int) float64) *Matrix {
		b := RandGaussian(n, d, g)
		for i := 0; i < n; i++ {
			s := scale(i)
			row := b.Row(i)
			for j := range row {
				row[j] *= s
			}
		}
		return Gram(b)
	}
	constant := New(9, 40)
	for i := range constant.Data {
		constant.Data[i] = 1
	}
	lowRank := Mul(RandGaussian(10, 3, g), RandGaussian(3, 64, g))
	cases := map[string]*Matrix{
		"fd_shaped_50":   Gram(fdShapedBuffer(25, 512, g)),
		"fd_shaped_24":   Gram(fdShapedBuffer(12, 96, g)),
		"cond_1e12":      scaled(20, 200, func(i int) float64 { return math.Pow(10, -6*float64(i)/19) }),
		"rank_deficient": Gram(lowRank),
		"constant":       Gram(constant),
		"all_zero":       New(6, 6),
		"n1":             Gram(RandGaussian(1, 8, g)),
		"n2":             Gram(RandGaussian(2, 8, g)),
		"odd_7":          Gram(RandGaussian(7, 30, g)),
		"odd_51":         Gram(RandGaussian(51, 60, g)),
		"wide_97":        Gram(RandGaussian(97, 120, g)),
		"wide_96":        scaled(96, 110, func(i int) float64 { return 1 / float64(i+1) }),
	}
	return cases
}

// TestEigSymMatchesReferenceBitForBit pins the row-contiguous sweeps to
// the column-walking solver they replaced: same operands, same
// operation order, so every eigenvalue and eigenvector bit agrees. At
// n ≥ eigParallelMinN both sides switch to the round-robin ordering
// when the pool is wider than one worker.
func TestEigSymMatchesReferenceBitForBit(t *testing.T) {
	for name, a := range eigCases() {
		wantVals, wantV := RefEigSym(a)
		gotVals, gotV := EigSym(a)
		if !floatsBitsEqual(gotVals, wantVals) {
			t.Errorf("%s: eigenvalues differ from the reference\n got %v\nwant %v", name, gotVals, wantVals)
		}
		if !bitsEqual(gotV, wantV) {
			t.Errorf("%s: eigenvectors differ from the reference", name)
		}
	}
}

// TestEigSweepOrderingsMatchReference drives both sweep orderings
// directly on every case, so the round-robin path is compared on
// small, odd and padded sizes and on hosts whose pool has one worker.
func TestEigSweepOrderingsMatchReference(t *testing.T) {
	for name, a := range eigCases() {
		n := a.RowsN
		if n < 2 {
			continue
		}
		for _, o := range []struct {
			order    string
			got, ref func(w, v *Matrix)
		}{
			{"cyclic", eigSweepsSerial, refEigSweepsCyclic},
			{"round_robin", eigSweepsParallel, refEigSweepsRoundRobin},
		} {
			w, vt := a.Clone(), Eye(n)
			o.got(w, vt)
			wRef, vRef := a.Clone(), Eye(n)
			o.ref(wRef, vRef)
			if !bitsEqual(w, wRef) {
				t.Errorf("%s/%s: rotated matrix differs from the reference", name, o.order)
			}
			if !bitsEqual(vt.T(), vRef) {
				t.Errorf("%s/%s: accumulated Vᵀ is not the reference V transposed", name, o.order)
			}
		}
	}
}

// TestSVDGramToLeadingRows checks what vt's row count selects: an
// r-row call returns every singular value and exactly the leading r
// rows of the full call, bit for bit — including above the parallel
// threshold, where MulTo splits the r rows differently.
func TestSVDGramToLeadingRows(t *testing.T) {
	g := rng.New(302)
	for _, sh := range []struct{ m, d, r int }{
		{50, 4096, 25}, {24, 96, 12}, {7, 33, 1}, {9, 40, 9}, {51, 300, 25},
	} {
		a := fdShapedBuffer((sh.m+1)/2, sh.d, g).Rows(0, sh.m)
		full := New(sh.m, sh.d)
		sigmaFull := SVDGramTo(a, nil, full)
		lead := New(sh.r, sh.d)
		sigmaLead := SVDGramTo(a, nil, lead)
		name := fmt.Sprintf("%dx%d r=%d", sh.m, sh.d, sh.r)
		if len(sigmaLead) != sh.m || !floatsBitsEqual(sigmaLead, sigmaFull) {
			t.Errorf("%s: singular values differ from the full call", name)
		}
		if !bitsEqual(lead, full.Rows(0, sh.r)) {
			t.Errorf("%s: rows differ from the leading rows of the full call", name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("SVDGramTo accepted more vt rows than the buffer has")
		}
	}()
	SVDGramTo(New(3, 5), nil, New(4, 5))
}
