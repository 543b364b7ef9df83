package parallel

import (
	"testing"
	"testing/quick"

	"arams/internal/mat"
	"arams/internal/rng"
	"arams/internal/sketch"
)

// randomShardSplit cuts x into p contiguous shards at p−1 random,
// distinct split points — unlike SplitRows, shard sizes are arbitrary
// (including empty), which is exactly the generality the mergeability
// proof claims.
func randomShardSplit(x *mat.Matrix, p int, g *rng.RNG) []*mat.Matrix {
	cuts := make([]int, 0, p+1)
	cuts = append(cuts, 0)
	for i := 0; i < p-1; i++ {
		cuts = append(cuts, g.Intn(x.RowsN+1))
	}
	cuts = append(cuts, x.RowsN)
	// Insertion sort; p is tiny.
	for i := 1; i < len(cuts); i++ {
		for j := i; j > 0 && cuts[j] < cuts[j-1]; j-- {
			cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
		}
	}
	shards := make([]*mat.Matrix, p)
	for i := 0; i < p; i++ {
		shards[i] = x.Rows(cuts[i], cuts[i+1])
	}
	return shards
}

// propertyParams maps raw quick-generated values onto the bounded
// parameter space the properties range over.
type propertyParams struct {
	n, d, ell, p, arity int
	g                   *rng.RNG
}

func paramsFrom(seed uint64, nRaw, dRaw, ellRaw, pRaw, arityRaw uint8) propertyParams {
	g := rng.New(seed)
	return propertyParams{
		n:     60 + int(nRaw)%160,  // 60..219 rows
		d:     4 + int(dRaw)%12,    // 4..15 features
		ell:   3 + int(ellRaw)%8,   // 3..10 directions
		p:     2 + int(pRaw)%7,     // 2..8 shards
		arity: 2 + int(arityRaw)%3, // 2..4 tree arity
		g:     g,
	}
}

// TestQuickMergeabilityBound is the property form of the paper's
// mergeability claim: for random data, random shard splits (including
// empty shards), random merge orders, and random tree arities, the
// tree-merged sketch satisfies ‖AᵀA − BᵀB‖₂ ≤ ‖A‖_F²/ℓ, and the tree
// and serial merges agree within that same bound.
func TestQuickMergeabilityBound(t *testing.T) {
	if testing.Short() {
		t.Skip("property test in -short mode")
	}
	property := func(seed uint64, nRaw, dRaw, ellRaw, pRaw, arityRaw uint8) bool {
		pp := paramsFrom(seed, nRaw, dRaw, ellRaw, pRaw, arityRaw)
		x := mat.RandGaussian(pp.n, pp.d, pp.g)
		shards := randomShardSplit(x, pp.p, pp.g)
		// Random merge order: permute the shard list. Contiguity of
		// each shard is preserved; the tree now folds them in a random
		// arrangement.
		perm := pp.g.Perm(len(shards))
		shuffled := make([]*mat.Matrix, len(shards))
		for i, j := range perm {
			shuffled[i] = shards[j]
		}
		mk := FDSketcher(pp.ell, sketch.Options{})
		gTree, _ := Run(shuffled, mk, TreeMerge, WithArity(pp.arity))
		gSerial, _ := Run(shuffled, mk, SerialMerge)

		bound := fdBound(x, pp.ell)
		eTree := sketch.CovErr(x, gTree.Sketch())
		eSerial := sketch.CovErr(x, gSerial.Sketch())
		if eTree > bound {
			t.Logf("tree bound violated: %v > %v (n=%d d=%d ℓ=%d p=%d arity=%d)",
				eTree, bound, pp.n, pp.d, pp.ell, pp.p, pp.arity)
			return false
		}
		if eSerial > bound {
			t.Logf("serial bound violated: %v > %v", eSerial, bound)
			return false
		}
		if diff := eTree - eSerial; diff > bound || -diff > bound {
			t.Logf("tree and serial disagree beyond the bound: |%v − %v| > %v", eTree, eSerial, bound)
			return false
		}
		if gTree.Seen() != pp.n || gSerial.Seen() != pp.n {
			t.Logf("row accounting broken: tree=%d serial=%d want %d", gTree.Seen(), gSerial.Seen(), pp.n)
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
