package parallel

import (
	"reflect"
	"testing"

	"arams/internal/sketch"
)

func TestArityRounds(t *testing.T) {
	x := testMatrix(640, 12, 30)
	for _, tc := range []struct {
		arity, shards, wantRounds int
	}{
		{2, 16, 4},
		{4, 16, 2},
		{8, 16, 2}, // 16 → 2 → 1
		{16, 16, 1},
		{4, 64, 3},
	} {
		shards := SplitRows(x, tc.shards)
		_, stats := Run(shards, FDSketcher(6, sketch.Options{}), TreeMerge, WithArity(tc.arity))
		if stats.MergeRounds != tc.wantRounds {
			t.Errorf("arity %d over %d shards: %d rounds, want %d",
				tc.arity, tc.shards, stats.MergeRounds, tc.wantRounds)
		}
	}
}

func TestArityBoundHolds(t *testing.T) {
	x := testMatrix(480, 16, 31)
	ell := 8
	for _, arity := range []int{2, 3, 4, 8} {
		shards := SplitRows(x, 12)
		global, _ := Run(shards, FDSketcher(ell, sketch.Options{}), TreeMerge, WithArity(arity))
		err := sketch.CovErr(x, global.Sketch())
		bound := 4 * x.FrobeniusNormSq() / float64(ell)
		if err > bound {
			t.Errorf("arity %d: CovErr %v > %v", arity, err, bound)
		}
		if global.Seen() != 480 {
			t.Errorf("arity %d: Seen = %d", arity, global.Seen())
		}
	}
}

func TestAritySimulatedMatchesConcurrent(t *testing.T) {
	x := testMatrix(320, 10, 32)
	for _, arity := range []int{2, 3, 4} {
		for _, p := range []int{8, 7, 5} {
			gc, sc := Run(SplitRows(x, p), FDSketcher(5, sketch.Options{}), TreeMerge, WithArity(arity))
			gs, ss := Run(SplitRows(x, p), FDSketcher(5, sketch.Options{}), TreeMerge, WithArity(arity), Sequential())
			if sc.MergeRounds != ss.MergeRounds {
				t.Errorf("arity %d, %d shards: rounds differ %d vs %d", arity, p, sc.MergeRounds, ss.MergeRounds)
			}
			// Same deterministic computation → identical sketches.
			if !gc.Sketch().Equal(gs.Sketch(), 1e-12) {
				t.Errorf("arity %d, %d shards: concurrent and simulated sketches differ", arity, p)
			}
			// … to the bit, counters and shrinkage ledger included.
			if !reflect.DeepEqual(gc.State(), gs.State()) {
				t.Errorf("arity %d, %d shards: concurrent and sequential sketch states differ", arity, p)
			}
		}
	}
}

func TestArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("arity 1 did not panic")
		}
	}()
	Run(SplitRows(testMatrix(10, 3, 33), 2), FDSketcher(2, sketch.Options{}), TreeMerge, WithArity(1))
}
