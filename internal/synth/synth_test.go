package synth

import (
	"math"
	"testing"

	"arams/internal/mat"
)

func TestSingularValuesDescending(t *testing.T) {
	for _, d := range []Decay{SubExponential, Exponential, SuperExponential, Cubic} {
		s := SingularValues(d, 100, 2)
		if math.Abs(s[0]-2) > 1e-12 {
			t.Errorf("%v: σ₀ = %v, want 2", d, s[0])
		}
		for i := 1; i < len(s); i++ {
			if s[i] > s[i-1] {
				t.Fatalf("%v: not descending at %d", d, i)
			}
			if s[i] <= 0 {
				t.Fatalf("%v: non-positive σ at %d", d, i)
			}
		}
	}
}

func TestDecayOrdering(t *testing.T) {
	// At the tail, super-exponential < exponential < sub-exponential.
	r := 100
	sub := SingularValues(SubExponential, r, 1)
	exp := SingularValues(Exponential, r, 1)
	sup := SingularValues(SuperExponential, r, 1)
	i := r - 1
	if !(sup[i] < exp[i] && exp[i] < sub[i]) {
		t.Fatalf("tail ordering wrong: sup=%g exp=%g sub=%g", sup[i], exp[i], sub[i])
	}
}

func TestDecayString(t *testing.T) {
	if SubExponential.String() != "sub-exponential" || Cubic.String() != "cubic" {
		t.Fatal("Decay names wrong")
	}
	if Decay(99).String() == "" {
		t.Fatal("unknown decay has empty name")
	}
}

func TestGenerateSpectrum(t *testing.T) {
	p := Params{N: 60, D: 40, Rank: 10, Decay: Exponential, Seed: 1}
	ds := Generate(p)
	if r, c := ds.A.Dims(); r != 60 || c != 40 {
		t.Fatalf("shape %d×%d", r, c)
	}
	// The generated matrix must have exactly the prescribed singular
	// values (up to roundoff) and rank.
	_, s, _ := mat.SVD(ds.A)
	for i := 0; i < 10; i++ {
		if math.Abs(s[i]-ds.Sigmas[i]) > 1e-9 {
			t.Fatalf("σ[%d] = %v, want %v", i, s[i], ds.Sigmas[i])
		}
	}
	for i := 10; i < len(s); i++ {
		if s[i] > 1e-9 {
			t.Fatalf("rank leak: σ[%d] = %v", i, s[i])
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := Params{N: 20, D: 15, Rank: 5, Decay: Cubic, Seed: 7}
	a := Generate(p)
	b := Generate(p)
	if !a.A.Equal(b.A, 0) {
		t.Fatal("same seed gave different data")
	}
	p.Seed = 8
	c := Generate(p)
	if a.A.Equal(c.A, 1e-9) {
		t.Fatal("different seeds gave identical data")
	}
}

func TestGenerateShardedSimilarity(t *testing.T) {
	p := Params{N: 0, D: 50, Rank: 8, Decay: Exponential, Seed: 3}
	shards := GenerateSharded(p, 4, 25, 0.05)
	if len(shards) != 4 {
		t.Fatalf("got %d shards", len(shards))
	}
	for i, s := range shards {
		if r, c := s.A.Dims(); r != 25 || c != 50 {
			t.Fatalf("shard %d shape %d×%d", i, r, c)
		}
		// Each shard's V stays orthonormal after perturbation.
		vtv := mat.Mul(s.V.T(), s.V)
		if !vtv.Equal(mat.Eye(8), 1e-9) {
			t.Fatalf("shard %d V not orthonormal", i)
		}
	}
	// Shards share structure: their V factors are close to each other
	// (small eps) but not identical.
	d01 := matDiffNorm(shards[0].V, shards[1].V)
	if d01 == 0 {
		t.Fatal("shards have identical V — perturbation missing")
	}
	if d01 > 1.0 {
		t.Fatalf("shards too dissimilar: ‖V0−V1‖ = %v", d01)
	}
}

func TestConcat(t *testing.T) {
	p := Params{D: 10, Rank: 3, Decay: Cubic, Seed: 4}
	shards := GenerateSharded(p, 3, 5, 0.01)
	all := Concat(shards)
	if r, c := all.Dims(); r != 15 || c != 10 {
		t.Fatalf("Concat shape %d×%d", r, c)
	}
	// First row of shard 1 lands at row 5.
	for j := 0; j < 10; j++ {
		if all.At(5, j) != shards[1].A.At(0, j) {
			t.Fatal("Concat row placement wrong")
		}
	}
	if e := Concat(nil); e.RowsN != 0 {
		t.Fatal("Concat(nil) not empty")
	}
}

func TestGenerateInvalidRankPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid rank did not panic")
		}
	}()
	Generate(Params{N: 5, D: 5, Rank: 10, Decay: Exponential})
}

func matDiffNorm(a, b *mat.Matrix) float64 {
	d := a.Clone()
	d.Sub(b)
	return d.FrobeniusNorm()
}
