//go:build amd64 && !amd64.v3

// The digests below are those of amd64 without fused multiply-add: at
// GOAMD64=v3 and on ports such as arm64 the compiler may fuse x*y+z into
// one rounding, which moves the last bit of every product-sum.

package sketch

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"arams/internal/mat"
	"arams/internal/rng"
)

// goldenStream is a fixed seeded low-rank-plus-noise stream with a
// decaying spectrum, so every rotation shrinks a well-separated head
// and a noisy tail.
func goldenStream(n, d, rank int, seed uint64) *mat.Matrix {
	g := rng.New(seed)
	basis := mat.New(rank, d)
	for i := range basis.Data {
		basis.Data[i] = g.Norm()
	}
	x := mat.New(n, d)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for k := 0; k < rank; k++ {
			c := g.Norm() / float64(k+1)
			for j, b := range basis.Row(k) {
				row[j] += c * b
			}
		}
		for j := range row {
			row[j] += 0.01 * g.Norm()
		}
	}
	return x
}

type digest struct{ h hash.Hash }

func (dg digest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	dg.h.Write(b[:])
}
func (dg digest) f64(v float64) { dg.u64(math.Float64bits(v)) }
func (dg digest) fd(s *FDState) {
	for _, v := range []int{s.Ell, s.D, s.NextZero, s.Rotations, s.Seen} {
		dg.u64(uint64(v))
	}
	dg.f64(s.TotalDelta)
	dg.f64(s.FrobMass)
	for _, v := range s.Buffer {
		dg.f64(v)
	}
}
func (dg digest) rng(s rng.State) {
	dg.u64(s.Hi)
	dg.u64(s.Lo)
	dg.u64(s.IncHi)
	dg.u64(s.IncLo)
	dg.f64(s.Gauss)
}

// TestGoldenStateDigests pins the exact bytes of the sketch state for
// fixed seeded streams. The digests were generated at the commit
// before the rotation computed only ℓ rows of Vᵀ and the eigensolver
// went row-contiguous, so they prove those rewrites (and the sampler's
// row views) changed no bit of any sketch, Σδ, RNG position or batch
// statistic.
func TestGoldenStateDigests(t *testing.T) {
	x := goldenStream(700, 96, 20, 20240917)
	// Above the parallel threshold the tiled Gram kernel pairs rows per
	// chunk, so the summation order — and the last bits — depend on the
	// pool width; the wide case is pinned for the widths it was recorded
	// at and skipped elsewhere.
	wideWant := map[int]string{
		1: "ecf6cc6e4a2a270d9a725562ef1d24366bb37d599fe23884bcc6491bd958a748",
		2: "a9fe6e20bc3aa3ce915945c4cb4d42e9bd72c54dc3df708476c0b3e63a451661",
	}
	cases := []struct {
		name, want string
		run        func(dg digest)
	}{
		{"fd", "c119df1f5345d076144c48fb81762139f9e04450d54b6d7de575086c49ecf61e", func(dg digest) {
			fd := NewFrequentDirections(12, x.ColsN, Options{})
			fd.AppendMatrix(x)
			s := fd.State()
			dg.fd(&s)
			// Compact + Basis read the factors the rotation kept.
			for _, v := range fd.Basis(12).Data {
				dg.f64(v)
			}
		}},
		{"fd-wide", wideWant[mat.Workers()], func(dg digest) {
			// The production shape: 2ℓ×d = 50×4096 crosses the kernels'
			// parallel threshold.
			w := goldenStream(160, 4096, 30, 77)
			fd := NewFrequentDirections(25, w.ColsN, Options{})
			fd.AppendMatrix(w)
			s := fd.State()
			dg.fd(&s)
		}},
		{"arams-sampled", "58d4f8c82775bb03fec37a0fe48100a177bf3be6e9bb86ab3396cfe84dda3a57", func(dg digest) {
			a := NewARAMS(Config{Ell0: 10, Beta: 0.8, Seed: 7}, x.ColsN, 0)
			for lo := 0; lo < x.RowsN; lo += 35 {
				bs := a.ProcessBatch(x.Rows(lo, lo+35))
				dg.u64(uint64(bs.Kept))
				dg.f64(bs.KeptMass)
				dg.f64(bs.TotalMass)
				dg.f64(bs.DeltaAdded)
			}
			s := a.State()
			dg.rng(s.RNG)
			dg.fd(s.FD)
		}},
		{"arams-rank-adaptive", "e58b73f7412634bc549eaa071600cc50f3cc9c5cbe0acc6e9b13bbe1edb82a39", func(dg digest) {
			a := NewARAMS(Config{Ell0: 6, Nu: 4, Eps: 0.05, Beta: 0.9, RankAdaptive: true, Seed: 11}, x.ColsN, x.RowsN)
			for lo := 0; lo < x.RowsN; lo += 50 {
				bs := a.ProcessBatch(x.Rows(lo, lo+50))
				dg.u64(uint64(bs.Kept))
				dg.u64(uint64(bs.EllAfter))
				dg.f64(bs.KeptMass)
				dg.f64(bs.DeltaAdded)
			}
			s := a.State()
			dg.rng(s.RNG)
			dg.rng(s.RankAdaptive.RNG)
			dg.u64(uint64(s.RankAdaptive.Grows))
			dg.fd(&s.RankAdaptive.FD)
			for _, row := range s.RankAdaptive.Recent {
				for _, v := range row {
					dg.f64(v)
				}
			}
		}},
	}
	for _, tc := range cases {
		if tc.want == "" {
			continue
		}
		h := sha256.New()
		tc.run(digest{h})
		got := hex.EncodeToString(h.Sum(nil))
		if got != tc.want {
			t.Errorf("%s: state digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
