package sketch

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"testing/quick"

	"arams/internal/mat"
	"arams/internal/rng"
	"arams/internal/synth"
)

func gaussData(n, d int, seed uint64) *mat.Matrix {
	return mat.RandGaussian(n, d, rng.New(seed))
}

func TestFDCovarianceBound(t *testing.T) {
	// The headline FD guarantee: ‖AᵀA − BᵀB‖₂ ≤ ‖A‖_F² / ℓ.
	for _, tc := range []struct{ n, d, ell int }{
		{100, 30, 5}, {200, 50, 10}, {150, 40, 20},
	} {
		a := gaussData(tc.n, tc.d, 1)
		fd := NewFrequentDirections(tc.ell, tc.d, Options{})
		fd.AppendMatrix(a)
		b := fd.Sketch()
		err := CovErr(a, b)
		bound := FDBound(a, tc.ell)
		if err > bound*(1+1e-9) {
			t.Errorf("n=%d d=%d ℓ=%d: CovErr %v exceeds bound %v", tc.n, tc.d, tc.ell, err, bound)
		}
	}
}

func TestFDShrinkageDomination(t *testing.T) {
	// FD shrinks, never inflates: AᵀA − BᵀB must be PSD. Check via
	// Rayleigh quotients on random directions.
	a := gaussData(120, 25, 2)
	fd := NewFrequentDirections(8, 25, Options{})
	fd.AppendMatrix(a)
	b := fd.Sketch()
	g := rng.New(3)
	for trial := 0; trial < 50; trial++ {
		v := make([]float64, 25)
		for i := range v {
			v[i] = g.Norm()
		}
		av := mat.MulVec(a, v)
		bv := mat.MulVec(b, v)
		diff := mat.Norm2Sq(av) - mat.Norm2Sq(bv)
		if diff < -1e-8*mat.Norm2Sq(av) {
			t.Fatalf("trial %d: vᵀ(AᵀA−BᵀB)v = %v < 0 — sketch inflated a direction", trial, diff)
		}
	}
}

func TestFDLowRankExactRecovery(t *testing.T) {
	// If the data has rank r < ℓ, FD recovers its row space exactly:
	// projection error onto the sketch basis is ~0.
	ds := synth.Generate(synth.Params{N: 80, D: 40, Rank: 5, Decay: Exponential(), Seed: 4})
	fd := NewFrequentDirections(10, 40, Options{})
	fd.AppendMatrix(ds.A)
	basis := fd.Basis(5)
	rel := RelProjErr(ds.A, basis)
	if rel > 1e-10 {
		t.Fatalf("rank-5 data, ℓ=10: relative projection error %v", rel)
	}
}

// Exponential returns the synth decay constant; tiny helper so test
// intent reads clearly.
func Exponential() synth.Decay { return synth.Exponential }

func TestFDSketchShape(t *testing.T) {
	fd := NewFrequentDirections(6, 17, Options{})
	fd.AppendMatrix(gaussData(50, 17, 5))
	b := fd.Sketch()
	if r, c := b.Dims(); r != 6 || c != 17 {
		t.Fatalf("sketch shape %d×%d, want 6×17", r, c)
	}
	if fd.Seen() != 50 {
		t.Fatalf("Seen = %d", fd.Seen())
	}
}

func TestFDFewerRowsThanEll(t *testing.T) {
	// Fewer rows than ℓ: sketch holds the data verbatim, zero error.
	a := gaussData(4, 10, 6)
	fd := NewFrequentDirections(8, 10, Options{})
	fd.AppendMatrix(a)
	b := fd.Sketch()
	if err := CovErr(a, b); err > 1e-9 {
		t.Fatalf("undersized stream should be exact, CovErr = %v", err)
	}
}

func TestFDZeroRows(t *testing.T) {
	fd := NewFrequentDirections(4, 8, Options{})
	fd.AppendMatrix(mat.New(20, 8)) // all-zero stream
	b := fd.Sketch()
	if b.FrobeniusNorm() != 0 {
		t.Fatal("zero stream produced nonzero sketch")
	}
	if b.HasNaN() {
		t.Fatal("zero stream produced NaN")
	}
}

func TestFDBackendsAgree(t *testing.T) {
	a := gaussData(100, 30, 7)
	fdG := NewFrequentDirections(8, 30, Options{Backend: GramSVD})
	fdJ := NewFrequentDirections(8, 30, Options{Backend: JacobiSVD})
	fdG.AppendMatrix(a)
	fdJ.AppendMatrix(a)
	eG := CovErr(a, fdG.Sketch())
	eJ := CovErr(a, fdJ.Sketch())
	// The two backends compute the same mathematical rotation; their
	// sketches may differ by roundoff but the errors must be close.
	if math.Abs(eG-eJ) > 1e-6*(1+eJ) {
		t.Fatalf("backend errors diverge: gram %v vs jacobi %v", eG, eJ)
	}
}

func TestFDRotationsCount(t *testing.T) {
	fd := NewFrequentDirections(5, 10, Options{})
	// 2ℓ=10 rows fill the buffer; each further ℓ rows force a rotation.
	fd.AppendMatrix(gaussData(40, 10, 8))
	// Appends: first 10 fill, then rotations occur at each refill.
	if fd.Rotations() == 0 {
		t.Fatal("no rotations recorded")
	}
	got := fd.Rotations()
	want := (40 - 2*5) / 5 // each rotation frees ℓ slots
	if got != want {
		t.Fatalf("Rotations = %d, want %d", got, want)
	}
}

func TestFDAppendWrongLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("wrong row length did not panic")
		}
	}()
	NewFrequentDirections(3, 5, Options{}).Append(make([]float64, 4))
}

func TestMergePreservesBound(t *testing.T) {
	// Merge two sketches of disjoint halves: merged sketch must still
	// satisfy the FD bound for the union (mergeable-summary property).
	d := 25
	a1 := gaussData(80, d, 9)
	a2 := gaussData(80, d, 10)
	ell := 8
	fd1 := NewFrequentDirections(ell, d, Options{})
	fd2 := NewFrequentDirections(ell, d, Options{})
	fd1.AppendMatrix(a1)
	fd2.AppendMatrix(a2)
	fd1.Merge(fd2)
	b := fd1.Sketch()

	all := mat.New(160, d)
	for i := 0; i < 80; i++ {
		copy(all.Row(i), a1.Row(i))
		copy(all.Row(i+80), a2.Row(i))
	}
	err := CovErr(all, b)
	// Merged summaries obey the 2·‖A‖_F²/ℓ mergeable bound.
	bound := 2 * all.FrobeniusNormSq() / float64(ell)
	if err > bound {
		t.Fatalf("merged CovErr %v exceeds mergeable bound %v", err, bound)
	}
	if fd1.Seen() != 160 {
		t.Fatalf("merged Seen = %d, want 160", fd1.Seen())
	}
}

func TestMergeDifferentEll(t *testing.T) {
	d := 12
	small := NewFrequentDirections(4, d, Options{})
	big := NewFrequentDirections(9, d, Options{})
	small.AppendMatrix(gaussData(30, d, 11))
	big.AppendMatrix(gaussData(30, d, 12))
	small.Merge(big)
	if small.Ell() != 9 {
		t.Fatalf("merge did not grow ℓ: %d", small.Ell())
	}
	if small.Sketch().HasNaN() {
		t.Fatal("merged sketch has NaN")
	}
}

// TestMergeInPlaceMatchesSketchCopy pins Merge's in-place read of the
// other sketch's compacted rows to the fold through a Sketch() copy it
// replaced — same rows, same order, same zero-row skip, so the same
// bits — on an other that needs compacting and one that holds fewer than
// ℓ rows; and a sketch merged into itself equals it merged with a clone.
func TestMergeInPlaceMatchesSketchCopy(t *testing.T) {
	const d, ell = 20, 6
	for _, otherRows := range []int{3, 40, 45} {
		mk := func(rows int, seed uint64) *FrequentDirections {
			fd := NewFrequentDirections(ell, d, Options{})
			fd.AppendMatrix(gaussData(rows, d, seed))
			return fd
		}
		got, ref := mk(50, 21), mk(50, 21)
		got.Merge(mk(otherRows, 22))
		other := mk(otherRows, 22)
		b := other.Sketch()
		for i := 0; i < b.RowsN; i++ {
			if mat.Norm2Sq(b.Row(i)) != 0 {
				ref.Append(b.Row(i))
			}
		}
		if !got.Sketch().Equal(ref.Sketch(), 0) {
			t.Fatalf("other with %d rows: in-place merge differs from the fold through Sketch()", otherRows)
		}
		if want := 50 + otherRows; got.Seen() != want {
			t.Fatalf("other with %d rows: merged Seen = %d, want %d", otherRows, got.Seen(), want)
		}

		self, twin := mk(otherRows, 23), mk(otherRows, 23)
		self.Merge(self)
		twin.Merge(twin.Clone())
		if !self.Sketch().Equal(twin.Sketch(), 0) || self.Seen() != twin.Seen() || self.Delta() != twin.Delta() {
			t.Fatalf("%d rows: self-merge differs from merging a clone", otherRows)
		}
	}
}

func TestMergeDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch merge did not panic")
		}
	}()
	a := NewFrequentDirections(3, 5, Options{})
	b := NewFrequentDirections(3, 6, Options{})
	a.Merge(b)
}

func TestGrowPreservesContent(t *testing.T) {
	d := 10
	fd := NewFrequentDirections(4, d, Options{})
	fd.AppendMatrix(gaussData(20, d, 13))
	before := fd.Sketch().Clone()
	fd.Grow(3)
	if fd.Ell() != 7 {
		t.Fatalf("Ell after grow = %d", fd.Ell())
	}
	after := fd.Sketch()
	// The first 4 rows (old content) are preserved.
	for i := 0; i < 4; i++ {
		for j := 0; j < d; j++ {
			if before.At(i, j) != after.At(i, j) {
				t.Fatal("Grow corrupted sketch content")
			}
		}
	}
}

// TestGrowReleasesTheNarrowBuffer: Grow borrows the wider buffer from
// the vector pool and hands the narrower one back, so a sketch built,
// grown and released in a loop draws both of its buffers from the pool,
// and a cycle allocates under the narrow buffer's size — what a Grow
// that kept the old buffer from the pool would cost. Collection is off
// for the loop, since it empties the pool. Under -race the pool drops a
// quarter of its puts, a quarter of both buffers per cycle on average
// (three quarters of the bound); the loop is long enough to hold that
// mean well inside it.
func TestGrowReleasesTheNarrowBuffer(t *testing.T) {
	const ell, dl, d, cycles = 8, 8, 1024, 200
	const narrow = 8 * 2 * ell * d
	rows := gaussData(2*ell, d, 17) // fills the buffer without a rotation
	cycle := func() {
		fd := NewFrequentDirections(ell, d, Options{})
		fd.AppendMatrix(rows)
		fd.Grow(dl)
		if fd.Ell() != ell+dl || fd.nextZero != 2*ell {
			t.Fatalf("grown sketch has ℓ=%d and %d rows, want %d and %d", fd.Ell(), fd.nextZero, ell+dl, 2*ell)
		}
		fd.Release()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cycle()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / cycles; per >= narrow {
		t.Errorf("build → grow → release allocates %d B per cycle; want under the narrow 2ℓ×d buffer, %d B", per, narrow)
	}
}

func TestFDErrorDecreasesWithEll(t *testing.T) {
	a := gaussData(200, 40, 14)
	var prev = math.Inf(1)
	for _, ell := range []int{2, 5, 10, 20} {
		fd := NewFrequentDirections(ell, 40, Options{})
		fd.AppendMatrix(a)
		err := CovErr(a, fd.Sketch())
		if err > prev*1.1 { // allow slight non-monotonic wiggle
			t.Fatalf("ℓ=%d: error %v did not improve on %v", ell, err, prev)
		}
		prev = err
	}
}

func TestFDPropertyQuick(t *testing.T) {
	// Property: for random small streams, the FD bound always holds.
	g := rng.New(99)
	f := func(seed uint16) bool {
		n := 20 + int(seed%64)
		d := 5 + int(seed%11)
		ell := 2 + int(seed%5)
		a := mat.RandGaussian(n, d, g)
		fd := NewFrequentDirections(ell, d, Options{})
		fd.AppendMatrix(a)
		return CovErr(a, fd.Sketch()) <= FDBound(a, ell)*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestBasisOrthonormal(t *testing.T) {
	a := gaussData(100, 20, 15)
	fd := NewFrequentDirections(8, 20, Options{})
	fd.AppendMatrix(a)
	for _, k := range []int{1, 4, 8} {
		vt := fd.Basis(k)
		if vt.RowsN != k {
			t.Fatalf("Basis(%d) has %d rows", k, vt.RowsN)
		}
		if !mat.Mul(vt, vt.T()).Equal(mat.Eye(k), 1e-8) {
			t.Fatalf("Basis(%d) rows not orthonormal", k)
		}
	}
}

func TestBasisBeforeRotation(t *testing.T) {
	// Basis must work when fewer than 2ℓ rows were appended (no
	// rotation yet).
	a := gaussData(5, 12, 16)
	fd := NewFrequentDirections(8, 12, Options{})
	fd.AppendMatrix(a)
	vt := fd.Basis(3)
	if vt.RowsN != 3 || vt.HasNaN() {
		t.Fatalf("pre-rotation Basis broken: %d rows", vt.RowsN)
	}
}

func TestBasisClampsToRank(t *testing.T) {
	// Rank-2 data: asking for 10 basis vectors returns at most 2.
	ds := synth.Generate(synth.Params{N: 40, D: 15, Rank: 2, Decay: synth.Exponential, Seed: 17})
	fd := NewFrequentDirections(6, 15, Options{})
	fd.AppendMatrix(ds.A)
	vt := fd.Basis(10)
	if vt.RowsN > 2 {
		t.Fatalf("Basis returned %d rows for rank-2 data", vt.RowsN)
	}
}

func TestBasisReflectsRowsAppendedAfterBasisCall(t *testing.T) {
	// Regression test for the stale-basis bug of the factor cache
	// (removed in issue 29): appending fewer than ℓ rows after a Basis
	// call never rotates, and a second Basis call used to serve the
	// cached factors and silently ignore the new rows.
	const ell, d = 8, 30
	fd := NewFrequentDirections(ell, d, Options{})
	row := make([]float64, d)
	for i := 0; i < 3; i++ {
		for j := range row {
			row[j] = 0
		}
		row[i] = 2
		fd.Append(row)
	}
	b1 := fd.Basis(3)
	if b1.RowsN != 3 {
		t.Fatalf("first Basis: %d rows, want 3", b1.RowsN)
	}

	// Fewer than ℓ new rows, all along feature 10 and dominant in norm:
	// the top singular vector of the updated sketch is ±e₁₀.
	for i := 0; i < 3; i++ {
		for j := range row {
			row[j] = 0
		}
		row[10] = 5
		fd.Append(row)
	}
	b2 := fd.Basis(1)
	if b2.RowsN != 1 {
		t.Fatalf("second Basis: %d rows, want 1", b2.RowsN)
	}
	if got := math.Abs(b2.At(0, 10)); got < 0.99 {
		t.Fatalf("stale basis: top direction has |component on feature 10| = %v, want ≈1 — rows appended between Basis calls were ignored", got)
	}
}

func TestBasisReflectsMergeBetweenCalls(t *testing.T) {
	// Merge folds rows in through Append, so the next Basis must see
	// them exactly like directly appended rows.
	const ell, d = 6, 20
	fd := NewFrequentDirections(ell, d, Options{})
	row := make([]float64, d)
	row[0] = 1
	fd.Append(row)
	_ = fd.Basis(1)

	other := NewFrequentDirections(ell, d, Options{})
	for j := range row {
		row[j] = 0
	}
	row[7] = 9
	other.Append(row)
	fd.Merge(other)

	b := fd.Basis(1)
	if got := math.Abs(b.At(0, 7)); got < 0.99 {
		t.Fatalf("basis ignores merged rows: |component on feature 7| = %v", got)
	}
}

// TestRotateLeavesNoStaleRows: the shrink clears only the rows it does
// not rewrite, so a rotation that keeps fewer than ℓ directions must
// still leave every other row of the buffer zero — including rows that
// held data a moment ago. 2ℓ orthonormal rows have 2ℓ equal singular
// values, so the shrink subtracts all of every one and keeps nothing.
func TestRotateLeavesNoStaleRows(t *testing.T) {
	const ell, d = 4, 12
	for _, backend := range []SVDBackend{GramSVD, JacobiSVD} {
		fd := NewFrequentDirections(ell, d, Options{Backend: backend})
		for i := 0; i < 2*ell+1; i++ { // the last append rotates a full buffer
			row := make([]float64, d)
			row[i] = 1
			fd.Append(row)
		}
		if fd.Rotations() != 1 || fd.nextZero != ell+1 {
			t.Fatalf("backend %v: %d rotations, nextZero %d", backend, fd.Rotations(), fd.nextZero)
		}
		for i := 0; i < 2*ell; i++ {
			if i == ell {
				continue // the row appended after the rotation
			}
			for j, v := range fd.buffer.Row(i) {
				if v != 0 {
					t.Fatalf("backend %v: buffer row %d col %d holds %g after the shrink", backend, i, j, v)
				}
			}
		}
	}
}

// TestNaNFrameRotatesWithoutPanic: a non-finite frame reaches the
// eigensolver as a NaN Gram matrix, on which no convergence test
// passes; the rotation must come back — bounded by the solver's
// iteration cap — and leave a state Finite reports, so the layers above
// can refuse it.
func TestNaNFrameRotatesWithoutPanic(t *testing.T) {
	const ell, d = 6, 20
	for _, backend := range []SVDBackend{GramSVD, JacobiSVD} {
		fd := NewFrequentDirections(ell, d, Options{Backend: backend})
		x := gaussData(2*ell+1, d, 43)
		x.Set(3, 5, math.NaN())
		fd.AppendMatrix(x)
		if fd.Rotations() != 1 {
			t.Fatalf("backend %v: %d rotations after 2ℓ+1 appends", backend, fd.Rotations())
		}
		if fd.Finite() {
			t.Errorf("backend %v: Finite() holds after a NaN frame went through a rotation", backend)
		}
	}
}

// TestProcessBatchFormsEachNormOnce: handing the squared norm down
// from ProcessBatch changes who computes it, not what is recorded —
// the batch accounting and the sketch's stream mass carry exactly the
// bits the per-account sums carried, with and without the sampler and
// with rank adaptation on.
func TestProcessBatchFormsEachNormOnce(t *testing.T) {
	x := gaussData(90, 24, 42)
	for _, cfg := range []Config{
		{Ell0: 5, Beta: 1, Seed: 3},
		{Ell0: 5, Beta: 0.7, Seed: 3},
		{Ell0: 4, Beta: 0.8, Seed: 3, RankAdaptive: true, Eps: 0.05, Nu: 3},
	} {
		a := NewARAMS(cfg, x.ColsN, x.RowsN)
		// The reference accounts, summed row by row as the stream goes.
		ref := NewARAMS(cfg, x.ColsN, x.RowsN)
		var total, kept, frob float64
		for lo := 0; lo < x.RowsN; lo += 30 {
			batch := x.Rows(lo, lo+30)
			bs := a.ProcessBatch(batch)
			total, kept = 0, 0
			for i := 0; i < batch.RowsN; i++ {
				total += mat.Norm2Sq(batch.Row(i))
			}
			rows := []int{}
			if cfg.Beta < 1 {
				for _, e := range sampleBatch(batch, cfg.Beta, ref.g, nil).selected() {
					rows = append(rows, e.index)
				}
			} else {
				for i := 0; i < batch.RowsN; i++ {
					rows = append(rows, i)
				}
			}
			for _, i := range rows {
				kept += mat.Norm2Sq(batch.Row(i))
				frob += mat.Norm2Sq(batch.Row(i))
			}
			if bs.TotalMass != total || bs.KeptMass != kept || bs.Kept != len(rows) {
				t.Fatalf("cfg %+v: batch stats %+v, want total %v kept %v (%d rows)", cfg, bs, total, kept, len(rows))
			}
		}
		if got := a.FD().FrobMass(); got != frob {
			t.Fatalf("cfg %+v: stream mass %v, want %v", cfg, got, frob)
		}
	}
}
