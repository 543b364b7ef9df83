package sketch

import (
	"math"
	"testing"

	"arams/internal/mat"
	"arams/internal/rng"
)

// sameState reports whether two states carry the same bits.
func sameState(a, b FDState) bool {
	if a.Ell != b.Ell || a.D != b.D || a.NextZero != b.NextZero ||
		a.Rotations != b.Rotations || a.Seen != b.Seen ||
		len(a.Kept) != len(b.Kept) || len(a.Incoming) != len(b.Incoming) ||
		math.Float64bits(a.TotalDelta) != math.Float64bits(b.TotalDelta) ||
		math.Float64bits(a.FrobMass) != math.Float64bits(b.FrobMass) {
		return false
	}
	for i, v := range a.Kept {
		if math.Float64bits(v) != math.Float64bits(b.Kept[i]) {
			return false
		}
	}
	for i, v := range a.Incoming {
		if math.Float32bits(v) != math.Float32bits(b.Incoming[i]) {
			return false
		}
	}
	return true
}

// sameBits reports whether two matrices have one shape and one bit
// pattern.
func sameBits(a, b *mat.Matrix) bool {
	if a.RowsN != b.RowsN || a.ColsN != b.ColsN {
		return false
	}
	for i := 0; i < a.RowsN; i++ {
		for j, v := range a.Row(i) {
			if math.Float64bits(v) != math.Float64bits(b.At(i, j)) {
				return false
			}
		}
	}
	return true
}

// TestBasisIsAFunctionOfState: a sketch is its buffer and counters, so
// Basis must read nothing else and write nothing at all. For every way a
// sketch comes to be — fresh, fewer than ℓ rows, more than ℓ rows,
// compacted, merged, grown, rank-adaptive — the sketch, its clone and a
// sketch rebuilt from its State return one basis, bit for bit, and the
// State is unchanged by the read.
//
// Before issue 29 (a cached Vᵀ beside the buffer, Basis compacting
// first) only "fresh" and "fewer than ℓ rows" passed: on "more than ℓ
// rows", "grown" and "rank-adaptive" the read rotated the sketch, and on
// those and on "compacted" and "merged" the sketch served its last
// rotation's factors where its clone and its restored copy decomposed
// their rows.
func TestBasisIsAFunctionOfState(t *testing.T) {
	const ell, d, k = 6, 40, 4
	x := gaussData(200, d, 61)
	stream := func(n int) *FrequentDirections {
		fd := NewFrequentDirections(ell, d, Options{})
		fd.AppendMatrix(x.Rows(0, n))
		return fd
	}
	cases := []struct {
		name string
		make func() *FrequentDirections
	}{
		{"fresh", func() *FrequentDirections { return NewFrequentDirections(ell, d, Options{}) }},
		{"fewer than ℓ rows", func() *FrequentDirections { return stream(ell - 2) }},
		{"more than ℓ rows", func() *FrequentDirections { return stream(40) }}, // 4 rows past a rotation
		{"compacted", func() *FrequentDirections {
			fd := stream(40)
			fd.Compact()
			return fd
		}},
		{"merged", func() *FrequentDirections { // parallel's fold: merge, then compact
			fd, other := stream(40), NewFrequentDirections(ell, d, Options{})
			other.AppendMatrix(x.Rows(40, 90))
			fd.Merge(other)
			fd.Compact()
			return fd
		}},
		{"grown", func() *FrequentDirections {
			fd := stream(40)
			fd.Grow(3)
			return fd
		}},
		{"rank-adaptive", func() *FrequentDirections {
			r := NewRankAdaptiveFD(3, d, 2, 0.01, 0, rng.New(5))
			r.AppendMatrix(x.Rows(0, 130))
			if r.grows == 0 || r.FD().nextZero <= r.Ell() {
				t.Fatalf("rank-adaptive fixture: %d grows, %d of ℓ=%d rows occupied; want a grown sketch past ℓ",
					r.grows, r.FD().nextZero, r.Ell())
			}
			return r.FD()
		}},
	}
	for _, tc := range cases {
		fd := tc.make()
		before := fd.State()
		got := fd.Basis(k)
		if !sameState(fd.State(), before) {
			t.Errorf("%s: Basis changed the sketch's State", tc.name)
		}
		if again := fd.Basis(k); !sameBits(again, got) {
			t.Errorf("%s: a second Basis differs from the first", tc.name)
		}
		if c := fd.Clone().Basis(k); !sameBits(c, got) {
			t.Errorf("%s: the clone's Basis differs", tc.name)
		}
		restored, err := newFDFromState(fd.State(), false)
		if err != nil {
			t.Fatal(err)
		}
		if r := restored.Basis(k); !sameBits(r, got) {
			t.Errorf("%s: the restored sketch's Basis differs", tc.name)
		}
		if want := min(k, min(fd.Ell(), fd.nextZero)); got.RowsN != want {
			t.Errorf("%s: Basis(%d) has %d rows, want %d", tc.name, k, got.RowsN, want)
		}
	}
}
