// Package synth generates the synthetic evaluation datasets of §V of
// the paper: n×d random matrices with prescribed singular-value decay,
// assembled as U·diag(σ)·Vᵀ from Haar-random orthogonal factors. For
// multi-core experiments, each worker perturbs shared base factors so
// the shards are "similar but not identical", mimicking shot-to-shot
// beam-profile variation.
package synth

import (
	"fmt"
	"math"

	"arams/internal/mat"
	"arams/internal/rng"
)

// Decay identifies a singular-value decay profile.
type Decay int

const (
	// SubExponential decays as exp(-sqrt(i)) — the slowest profile
	// (red curve in Fig. 1).
	SubExponential Decay = iota
	// Exponential decays as exp(-i/τ) (blue curve in Fig. 1).
	Exponential
	// SuperExponential decays as exp(-(i/τ)^1.5) — the fastest profile
	// (black curve in Fig. 1).
	SuperExponential
	// Cubic decays as 1/(1+i)³, the profile of the strong-scaling
	// matrix in §V.3.
	Cubic
)

// String returns the profile name used in tables and legends.
func (d Decay) String() string {
	switch d {
	case SubExponential:
		return "sub-exponential"
	case Exponential:
		return "exponential"
	case SuperExponential:
		return "super-exponential"
	case Cubic:
		return "cubic"
	default:
		return fmt.Sprintf("Decay(%d)", int(d))
	}
}

// SingularValues returns r singular values following the decay profile,
// scaled so σ₀ = scale.
func SingularValues(d Decay, r int, scale float64) []float64 {
	s := make([]float64, r)
	// τ chosen so the spectrum spans several orders of magnitude over r
	// indices, matching the semilog curves of Fig. 1.
	tau := float64(r) / 8
	for i := 0; i < r; i++ {
		x := float64(i)
		switch d {
		case SubExponential:
			s[i] = math.Exp(-math.Sqrt(x) / math.Sqrt(tau))
		case Exponential:
			s[i] = math.Exp(-x / tau)
		case SuperExponential:
			s[i] = math.Exp(-math.Pow(x/tau, 1.5))
		case Cubic:
			s[i] = 1 / math.Pow(1+x, 3)
		default:
			panic("synth: unknown decay profile")
		}
	}
	for i := range s {
		s[i] *= scale
	}
	return s
}

// Params configures dataset generation.
type Params struct {
	N     int     // samples (rows)
	D     int     // features (columns)
	Rank  int     // intrinsic rank r (number of nonzero singular values)
	Decay Decay   // singular-value profile
	Scale float64 // σ₀; defaults to 1 if zero
	Seed  uint64  // RNG seed
}

// Dataset is a generated matrix together with its ground-truth factors,
// so tests and experiments can compute exact optimal low-rank errors.
type Dataset struct {
	A      *mat.Matrix // n×d data
	U      *mat.Matrix // n×r left factor (orthonormal columns)
	V      *mat.Matrix // d×r right factor (orthonormal columns)
	Sigmas []float64   // r singular values, descending
}

// Generate builds a dataset A = U diag(σ) Vᵀ with Haar-random factors.
func Generate(p Params) *Dataset {
	if p.Scale == 0 {
		p.Scale = 1
	}
	if p.Rank <= 0 || p.Rank > p.N || p.Rank > p.D {
		panic(fmt.Sprintf("synth: rank %d invalid for %d×%d", p.Rank, p.N, p.D))
	}
	g := rng.New(p.Seed)
	u := mat.RandOrthonormalCols(p.N, p.Rank, g)
	v := mat.RandOrthonormalCols(p.D, p.Rank, g)
	sig := SingularValues(p.Decay, p.Rank, p.Scale)
	return &Dataset{A: assemble(u, sig, v), U: u, V: v, Sigmas: sig}
}

// assemble computes U diag(σ) Vᵀ without forming diag(σ) explicitly.
func assemble(u *mat.Matrix, sig []float64, v *mat.Matrix) *mat.Matrix {
	us := u.Clone()
	for j, s := range sig {
		for i := 0; i < us.RowsN; i++ {
			us.Set(i, j, us.At(i, j)*s)
		}
	}
	return mat.MulABt(us, v)
}

// GenerateSharded builds `shards` datasets sharing base factors, each
// perturbed by an independent rotation of magnitude eps, reproducing the
// paper's per-core data generation: "each core starts with the same
// random orthogonal matrices and we then perturb these ... by a unique
// perturbation for each core". Shard i has nPerShard rows.
func GenerateSharded(p Params, shards int, nPerShard int, eps float64) []*Dataset {
	if p.Scale == 0 {
		p.Scale = 1
	}
	g := rng.New(p.Seed)
	baseV := mat.RandOrthonormalCols(p.D, p.Rank, g)
	sig := SingularValues(p.Decay, p.Rank, p.Scale)
	// A shard with fewer rows than the global rank can only span an
	// nPerShard-dimensional subspace; it carries the leading
	// directions, which is exactly what small per-core batches of
	// highly similar frames look like.
	rank := p.Rank
	if rank > nPerShard {
		rank = nPerShard
	}
	out := make([]*Dataset, shards)
	for s := 0; s < shards; s++ {
		gs := g.Split()
		u := mat.RandOrthonormalCols(nPerShard, rank, gs)
		v := perturbOrthonormal(baseV, eps, gs)
		vr := v
		sr := sig
		if rank < p.Rank {
			vr = mat.New(p.D, rank)
			for i := 0; i < p.D; i++ {
				copy(vr.Row(i), v.Row(i)[:rank])
			}
			sr = sig[:rank]
		}
		out[s] = &Dataset{A: assemble(u, sr, vr), U: u, V: vr, Sigmas: sr}
	}
	return out
}

// perturbOrthonormal adds Gaussian noise of relative Frobenius magnitude
// eps to q and re-orthonormalizes with QR, yielding a nearby point on
// the Stiefel manifold. The noise is scaled by 1/√rows so that eps is a
// dimension-independent relative perturbation size.
func perturbOrthonormal(q *mat.Matrix, eps float64, g *rng.RNG) *mat.Matrix {
	p := q.Clone()
	scale := eps / math.Sqrt(float64(q.RowsN))
	for i := range p.Data {
		p.Data[i] += scale * g.Norm()
	}
	qq, rr := mat.QR(p)
	for j := 0; j < qq.ColsN; j++ {
		if rr.At(j, j) < 0 {
			for i := 0; i < qq.RowsN; i++ {
				qq.Set(i, j, -qq.At(i, j))
			}
		}
	}
	return qq
}

// Concat stacks shard matrices vertically into one dataset view.
func Concat(shards []*Dataset) *mat.Matrix {
	if len(shards) == 0 {
		return mat.New(0, 0)
	}
	d := shards[0].A.ColsN
	total := 0
	for _, s := range shards {
		if s.A.ColsN != d {
			panic("synth: Concat shards have different widths")
		}
		total += s.A.RowsN
	}
	out := mat.New(total, d)
	row := 0
	for _, s := range shards {
		for i := 0; i < s.A.RowsN; i++ {
			copy(out.Row(row), s.A.Row(i))
			row++
		}
	}
	return out
}
