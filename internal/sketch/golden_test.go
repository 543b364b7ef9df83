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
	for _, v := range s.Kept {
		dg.f64(v)
	}
	for _, v := range s.Incoming {
		dg.f64(float64(v))
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
//
// All were re-recorded when the sketch began to store the rows it
// appends at float32 until its next rotation (EXPERIMENTS.md, "Rows wait
// at float32"): every row is rounded once, and Σδ carries the rounding's
// charge. That change's proof is TestKeptRowsAreFloat64FDOfRoundedRows
// — the kept rows, the incoming rows, Σδ and Basis are bit for bit the
// all-float64 sketch's fed the rows rounded first — not these digests.
func TestGoldenStateDigests(t *testing.T) {
	x := goldenStream(700, 96, 20, 20240917)
	cases := []struct {
		name, want string
		run        func(dg digest)
	}{
		{"fd", "fa51cd61544b79ade457ee49b7ed55d4858377844d529eae18d4fa2c37d4b7c4", func(dg digest) {
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
		{"fd-wide", "159f43093fe954e5e29a1694fd1beee1f6318a12c789d7553f5d583030bf92da", func(dg digest) {
			// The production shape: 2ℓ×d = 50×4096 crosses the kernels'
			// parallel threshold, where the pool returns the serial bits
			// at every width.
			w := goldenStream(160, 4096, 30, 77)
			fd := NewFrequentDirections(25, w.ColsN, Options{})
			fd.AppendMatrix(w)
			s := fd.State()
			dg.fd(&s)
		}},
		{"arams-sampled", "06bcc7899a7f1597da1cc80dd3c00c18f292b6b3fe2c18c6eccc087bfd36eb2d", func(dg digest) {
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
		{"arams-rank-adaptive", "ac21f96950d58ac441b649aba6e607fb9a5bfbebab1121be4e8998624423d50e", func(dg digest) {
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
