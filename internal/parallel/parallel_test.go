package parallel

import (
	"testing"

	"arams/internal/mat"
	"arams/internal/rng"
	"arams/internal/sketch"
	"arams/internal/synth"
)

func testMatrix(n, d int, seed uint64) *mat.Matrix {
	return mat.RandGaussian(n, d, rng.New(seed))
}

// fdBound returns the Frequent Directions covariance-error bound
// ‖A‖_F²/ℓ with a small slack for floating-point roundoff.
func fdBound(x *mat.Matrix, ell int) float64 {
	return x.FrobeniusNormSq() / float64(ell) * (1 + 1e-8)
}

func TestSplitRows(t *testing.T) {
	x := testMatrix(10, 3, 1)
	shards := SplitRows(x, 3)
	if len(shards) != 3 {
		t.Fatalf("got %d shards", len(shards))
	}
	total := 0
	for _, s := range shards {
		total += s.RowsN
	}
	if total != 10 {
		t.Fatalf("shards cover %d rows", total)
	}
	// Near-equal: sizes 4,3,3.
	if shards[0].RowsN != 4 || shards[1].RowsN != 3 {
		t.Fatalf("shard sizes %d,%d,%d", shards[0].RowsN, shards[1].RowsN, shards[2].RowsN)
	}
	// Views share storage.
	shards[1].Set(0, 0, 123)
	if x.At(4, 0) != 123 {
		t.Fatal("SplitRows did not return views")
	}
}

func TestSplitRowsClamps(t *testing.T) {
	x := testMatrix(2, 3, 2)
	shards := SplitRows(x, 10)
	if len(shards) != 2 {
		t.Fatalf("got %d shards for 2 rows", len(shards))
	}
}

func TestSplitRowsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("p=0 did not panic")
		}
	}()
	SplitRows(testMatrix(3, 3, 3), 0)
}

func TestParallelBoundHolds(t *testing.T) {
	// Global sketch from either strategy must satisfy the mergeable
	// FD bound on the full data.
	x := testMatrix(240, 20, 4)
	ell := 8
	for _, strat := range []MergeStrategy{TreeMerge, SerialMerge} {
		for _, p := range []int{1, 2, 4, 8} {
			shards := SplitRows(x, p)
			global, stats := Run(shards, FDSketcher(ell, sketch.Options{}), strat)
			err := sketch.CovErr(x, global.Sketch())
			// Each merge level can at most double the error budget; the
			// loose safety bound 4·‖A‖²_F/ℓ covers all tested depths.
			bound := 4 * x.FrobeniusNormSq() / float64(ell)
			if err > bound {
				t.Errorf("%v p=%d: CovErr %v > %v", strat, p, err, bound)
			}
			if stats.Workers != p {
				t.Errorf("%v p=%d: Workers = %d", strat, p, stats.Workers)
			}
		}
	}
}

func TestTreeMergeFewerRotations(t *testing.T) {
	// The whole point of the tree: a logarithmic number of merge
	// rounds vs the serial chain's linear count.
	x := testMatrix(512, 16, 5)
	shards := SplitRows(x, 16)
	_, tree := Run(shards, FDSketcher(6, sketch.Options{}), TreeMerge)

	shards = SplitRows(x, 16)
	_, serial := Run(shards, FDSketcher(6, sketch.Options{}), SerialMerge)

	if tree.MergeRounds != 4 { // log2(16)
		t.Errorf("tree MergeRounds = %d, want 4", tree.MergeRounds)
	}
	if serial.MergeRounds != 15 {
		t.Errorf("serial MergeRounds = %d, want 15", serial.MergeRounds)
	}
}

func TestTreeAndSerialErrorsTrack(t *testing.T) {
	// Fig. 3's claim: tree-merge error closely tracks serial-merge
	// error.
	ds := synth.Generate(synth.Params{N: 400, D: 30, Rank: 15, Decay: synth.Cubic, Seed: 6})
	ell := 10
	shards := SplitRows(ds.A, 8)
	gTree, _ := Run(shards, FDSketcher(ell, sketch.Options{}), TreeMerge)
	shards = SplitRows(ds.A, 8)
	gSerial, _ := Run(shards, FDSketcher(ell, sketch.Options{}), SerialMerge)
	eTree := sketch.CovErr(ds.A, gTree.Sketch())
	eSerial := sketch.CovErr(ds.A, gSerial.Sketch())
	if eTree > 3*eSerial+1e-12 || eSerial > 3*eTree+1e-12 {
		t.Fatalf("errors diverge: tree %v vs serial %v", eTree, eSerial)
	}
}

func TestSingleShardNoMerge(t *testing.T) {
	x := testMatrix(60, 10, 7)
	global, stats := Run(SplitRows(x, 1), FDSketcher(5, sketch.Options{}), TreeMerge)
	if stats.MergeRounds != 0 || stats.MergeRotations != 0 {
		t.Fatalf("single shard should not merge: %+v", stats)
	}
	if global.Seen() != 60 {
		t.Fatalf("Seen = %d", global.Seen())
	}
}

func TestOddShardCount(t *testing.T) {
	x := testMatrix(210, 12, 8)
	global, stats := Run(SplitRows(x, 7), FDSketcher(6, sketch.Options{}), TreeMerge)
	if global.Sketch().HasNaN() {
		t.Fatal("odd shard count produced NaN")
	}
	if stats.MergeRounds != 3 { // ceil(log2(7))
		t.Fatalf("MergeRounds = %d, want 3", stats.MergeRounds)
	}
}

func TestRunEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty shard list did not panic")
		}
	}()
	Run(nil, FDSketcher(4, sketch.Options{}), TreeMerge)
}

func TestSeenAccounting(t *testing.T) {
	x := testMatrix(300, 10, 9)
	for _, strat := range []MergeStrategy{TreeMerge, SerialMerge} {
		global, _ := Run(SplitRows(x, 4), FDSketcher(5, sketch.Options{}), strat)
		if global.Seen() != 300 {
			t.Fatalf("%v: global Seen = %d, want 300", strat, global.Seen())
		}
	}
}

func TestStrategyString(t *testing.T) {
	if TreeMerge.String() != "tree-merge" || SerialMerge.String() != "serial-merge" {
		t.Fatal("strategy names wrong")
	}
}

func TestDegenerateInputs(t *testing.T) {
	// Table over the two degenerate shapes: a 0-row dataset (Run must
	// short-circuit to an empty sketch instead of fanning out over
	// nothing) and fewer rows than workers (SplitRows clamps p).
	mk := FDSketcher(4, sketch.Options{})
	cases := []struct {
		name       string
		rows, p    int
		wantShards int
	}{
		{"zero-rows", 0, 4, 1},
		{"rows-less-than-p", 3, 8, 3},
		{"one-row", 1, 6, 1},
	}
	for _, tc := range cases {
		for _, strat := range []MergeStrategy{TreeMerge, SerialMerge} {
			x := testMatrix(tc.rows, 5, 21)
			shards := SplitRows(x, tc.p)
			if len(shards) != tc.wantShards {
				t.Fatalf("%s: SplitRows gave %d shards, want %d", tc.name, len(shards), tc.wantShards)
			}
			for _, run := range []func([]*mat.Matrix, Sketcher, MergeStrategy) (*sketch.FrequentDirections, Stats){
				func(s []*mat.Matrix, mk Sketcher, strat MergeStrategy) (*sketch.FrequentDirections, Stats) {
					return Run(s, mk, strat)
				},
				func(s []*mat.Matrix, mk Sketcher, strat MergeStrategy) (*sketch.FrequentDirections, Stats) {
					return Run(s, mk, strat, Sequential())
				},
			} {
				global, stats := run(shards, mk, strat)
				if global.Seen() != tc.rows {
					t.Fatalf("%s/%v: Seen = %d, want %d", tc.name, strat, global.Seen(), tc.rows)
				}
				if stats.Workers != tc.wantShards {
					t.Fatalf("%s/%v: Workers = %d, want %d", tc.name, strat, stats.Workers, tc.wantShards)
				}
				b := global.Sketch()
				if b.RowsN != 4 || b.ColsN != 5 || b.HasNaN() {
					t.Fatalf("%s/%v: sketch shape %d×%d", tc.name, strat, b.RowsN, b.ColsN)
				}
			}
		}
	}
}

func TestRunAllEmptyShardsDeterministic(t *testing.T) {
	// Every shard empty: no merges, no rotations, zero-duration stats.
	shards := []*mat.Matrix{mat.New(0, 7), mat.New(0, 7), mat.New(0, 7)}
	global, stats := Run(shards, FDSketcher(3, sketch.Options{}), TreeMerge)
	if global.Seen() != 0 || global.Rotations() != 0 {
		t.Fatalf("empty run did work: seen=%d rotations=%d", global.Seen(), global.Rotations())
	}
	if stats.MergeRounds != 0 || stats.MergeRotations != 0 {
		t.Fatalf("empty run reported merges: %+v", stats)
	}
	if b := global.Sketch(); b.ColsN != 7 {
		t.Fatalf("empty run sketch d = %d, want 7", b.ColsN)
	}
}
