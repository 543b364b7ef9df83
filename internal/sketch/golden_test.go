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

	"arams/internal/rng"
)

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
// fixed seeded streams. The digests were recorded at issue 25, the
// commit that replaced the cyclic Jacobi eigensolver under the rotation
// with tridiagonal QL (internal/mat/eig.go) and handed the sampler the
// row norm ProcessBatch had already summed: every sketch row and Σδ
// move in their low bits, RNG positions and every count do not. That
// change's proof is therefore not these digests but
// TestEigSymWithinRoundoffOfJacobi (internal/mat) and
// TestBackendsAgreeOverWholeStreams (reference_test.go); the old → new
// table is in EXPERIMENTS.md, "Tridiagonal QL (issue 25)", and the
// digests before it — which showed the ℓ-row rotation, the
// row-contiguous Jacobi sweeps and the sampler's row views changed no
// bit — are in the history of this file.
func TestGoldenStateDigests(t *testing.T) {
	x := goldenStream(700, 96, 20, 20240917)
	cases := []struct {
		name, want string
		run        func(dg digest)
	}{
		{"fd", "c80bf7d1b5a1eb952798b7b3890a4badd1b3e15414c99f6217518f9ba35c2ff6", func(dg digest) {
			fd := NewFrequentDirections(12, x.ColsN, Options{})
			fd.AppendMatrix(x)
			s := fd.State()
			dg.fd(&s)
			// More than ℓ rows are occupied: Basis reads the rows the
			// next rotation would keep (the same bits the old
			// compact-then-read served).
			for _, v := range fd.Basis(12).Data {
				dg.f64(v)
			}
		}},
		{"fd-wide", "08f2471eef726aeee18377758c65178051e7d286ac5b2d8de41582938b039800", func(dg digest) {
			// The production shape: 2ℓ×d = 50×4096 crosses the kernels'
			// parallel threshold, where the pool returns the serial bits
			// at every width.
			w := goldenStream(160, 4096, 30, 77)
			fd := NewFrequentDirections(25, w.ColsN, Options{})
			fd.AppendMatrix(w)
			s := fd.State()
			dg.fd(&s)
		}},
		{"arams-sampled", "1a9f4506c8417f9f4d0ad433b815187949d7a8926a4d8bf8728bd4d5d71c403d", func(dg digest) {
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
		{"arams-rank-adaptive", "5738b86f87d17aae1ca0691ca39ee653f81c06b501c8482c49e6232724df61fa", func(dg digest) {
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
		h := sha256.New()
		tc.run(digest{h})
		got := hex.EncodeToString(h.Sum(nil))
		if got != tc.want {
			t.Errorf("%s: state digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
