package parallel

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"arams/internal/obs"
	"arams/internal/sketch"
)

// TestMergeSketchesLeavesInputsUntouched pins MergeSketches' contract:
// merging compacts both operands, so every input — not just the
// accumulator — must be cloned first, and the caller's sketches keep
// their exact state under either strategy.
func TestMergeSketchesLeavesInputsUntouched(t *testing.T) {
	for _, strat := range []MergeStrategy{TreeMerge, SerialMerge} {
		fds := remoteTestSketches(t, 5)
		before := make([]sketch.FDState, len(fds))
		for i, fd := range fds {
			before[i] = fd.State()
		}
		g, stats := MergeSketches(fds, strat)
		if g.Seen() != 160 {
			t.Fatalf("%v: merged sketch saw %d rows, want 160", strat, g.Seen())
		}
		for i, fd := range fds {
			if !reflect.DeepEqual(before[i], fd.State()) {
				t.Errorf("%v: MergeSketches mutated input %d", strat, i)
			}
		}
		if strat == TreeMerge && len(stats.Rounds) != stats.MergeRounds {
			t.Errorf("tree Rounds has %d entries, MergeRounds=%d", len(stats.Rounds), stats.MergeRounds)
		}
	}
}

// TestMergeSketchesUnknownStrategyPanics: an out-of-range strategy is a
// caller bug everywhere, not a silent tree merge.
func TestMergeSketchesUnknownStrategyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown strategy did not panic")
		}
	}()
	MergeSketches(remoteTestSketches(t, 2), MergeStrategy(7))
}

// TestMergeRemoteFoldsFetchedSketchesInPlace: MergeRemote owns what its
// fetches return, so it must not clone them again. With two legs whose
// sketches have already rotated (their rotation scratch exists), the
// one merge's only buffer-sized allocation is the ℓ×d copy Merge takes
// of its operand — half a 2ℓ×d buffer — whereas one clone per leg costs
// two whole buffers.
func TestMergeRemoteFoldsFetchedSketchesInPlace(t *testing.T) {
	const ell, d, rounds = 16, 2048, 8
	x := testMatrix(6*ell, d, 91)
	mk := FDSketcher(ell, sketch.Options{})
	prebuilt := make([][]RemoteLeg, rounds)
	for r := range prebuilt {
		for i, s := range SplitRows(x, 2) {
			fd := mk(s)
			prebuilt[r] = append(prebuilt[r], RemoteLeg{Name: "leg" + string(rune('a'+i)),
				Fetch: func(obs.SpanContext) (*sketch.FrequentDirections, error) { return fd, nil }})
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, legs := range prebuilt {
		if g, _, _ := MergeRemote(legs, obs.SpanContext{}); g.Seen() != x.RowsN {
			t.Fatalf("merged sketch saw %d rows, want %d", g.Seen(), x.RowsN)
		}
	}
	runtime.ReadMemStats(&m1)
	perMerge := (m1.TotalAlloc - m0.TotalAlloc) / rounds
	if buffer := uint64(2 * ell * d * 8); perMerge >= buffer {
		t.Fatalf("MergeRemote allocated %d B per 2-leg merge beyond its fetches, want < one 2ℓ×d buffer (%d B)",
			perMerge, buffer)
	}
}

// TestMergeSketchesReleasesFoldedClones: MergeSketches clones its inputs
// into buffers borrowed from the vector pool and releases every clone
// it folds, so with the caller releasing the result too, a loop of
// two-input merges draws all its buffers from the pool — under one 2ℓ×d
// buffer per merge, where keeping the folded clone costs one. The inputs
// keep their state throughout. Collection is off for the loop, since it
// empties the pool; under -race the pool drops a quarter of its puts,
// which costs half a buffer per merge on average.
func TestMergeSketchesReleasesFoldedClones(t *testing.T) {
	const ell, d, merges = 8, 1024, 100
	const buffer = 8 * 2 * ell * d
	x := testMatrix(6*ell, d, 93)
	mk := FDSketcher(ell, sketch.Options{})
	var fds []*sketch.FrequentDirections
	var before []sketch.FDState
	for _, s := range SplitRows(x, 2) {
		fds = append(fds, mk(s))
		before = append(before, fds[len(fds)-1].State())
	}
	merge := func() {
		g, _ := MergeSketches(fds, TreeMerge)
		if g.Seen() != x.RowsN {
			t.Fatalf("merged sketch saw %d rows, want %d", g.Seen(), x.RowsN)
		}
		g.Release()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	merge()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < merges; i++ {
		merge()
	}
	runtime.ReadMemStats(&m1)
	if per := (m1.TotalAlloc - m0.TotalAlloc) / merges; per >= buffer {
		t.Errorf("a two-input MergeSketches allocates %d B; want under one 2ℓ×d buffer (%d B)", per, buffer)
	}
	for i, fd := range fds {
		if !reflect.DeepEqual(before[i], fd.State()) {
			t.Errorf("input %d changed across the merges", i)
		}
	}
}

// TestRoundStatsAccounting checks the per-round leg bookkeeping: every
// tree level must report its leg count and a non-zero slowest-leg
// duration.
func TestRoundStatsAccounting(t *testing.T) {
	x := testMatrix(256, 8, 23)
	mk := FDSketcher(6, sketch.Options{})
	_, stats := Run(SplitRows(x, 8), mk, TreeMerge)
	if len(stats.Rounds) != stats.MergeRounds {
		t.Fatalf("Rounds has %d entries, MergeRounds=%d", len(stats.Rounds), stats.MergeRounds)
	}
	wantLegs := []int{4, 2, 1} // 8 → 4 → 2 → 1 with arity 2
	for i, rs := range stats.Rounds {
		if rs.Legs != wantLegs[i] {
			t.Errorf("round %d: %d legs, want %d", i, rs.Legs, wantLegs[i])
		}
		if rs.Slowest <= 0 {
			t.Errorf("round %d: slowest leg took %v, want > 0", i, rs.Slowest)
		}
	}
}
