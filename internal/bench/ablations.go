package bench

import (
	"fmt"
	"math"
	"time"

	"arams/internal/mat"
	"arams/internal/parallel"
	"arams/internal/rng"
	"arams/internal/sketch"
	"arams/internal/synth"
)

// EstimatorSweep compares the three Frobenius-residual estimators the
// rank-adaptation heuristic can use: the paper's Gaussian probes, the
// Hutchinson stochastic trace estimator, and Hutch++ (the future-work
// directions named in §IV-A.2), across probe budgets.
func EstimatorSweep(seed uint64) *Table {
	t := &Table{
		Title: "Alg.1 extension: estimator comparison (paper's future work)",
		Note: "mean |est−exact|/exact per probe budget ν; expect " +
			"hutch++ ≤ hutchinson ≤ gaussian on decaying spectra",
		Header: []string{"nu", "gaussian", "hutchinson", "hutch++"},
	}
	ds := synth.Generate(synth.Params{
		N: 240, D: 120, Rank: 80, Decay: synth.Exponential, Seed: seed,
	})
	vfull := ds.V.T()
	vt := mat.New(10, 120)
	for i := 0; i < 10; i++ {
		copy(vt.Row(i), vfull.Row(i))
	}
	exact := sketch.ProjErrSq(ds.A, vt)
	const trials = 60
	for _, nu := range []int{3, 6, 12, 24, 48} {
		row := make([]interface{}, 0, 4)
		row = append(row, nu)
		for _, kind := range []sketch.EstimatorKind{
			sketch.GaussianProbe, sketch.Hutchinson, sketch.HutchPP,
		} {
			var dev float64
			for tr := 0; tr < trials; tr++ {
				est := sketch.EstimateResidualSqKind(kind, ds.A, vt, nu,
					rng.NewStream(uint64(tr), uint64(nu)*7+uint64(kind)))
				dev += math.Abs(est-exact) / exact
			}
			row = append(row, dev/trials)
		}
		t.Append(row...)
	}
	return t
}

// AritySweep measures how the tree-merge branching factor affects the
// merge critical path and accuracy — the generalization covered by the
// appendix's arity-a mergeability proof.
func AritySweep(p ScalingParams) *Table {
	t := &Table{
		Title: "Tree-merge ablation: branching factor (appendix arity-a proof)",
		Note: "higher arity → fewer rounds but more sequential merges per round; " +
			"arity 2 minimizes the critical path, errors stay equivalent",
		Header: []string{"arity", "merge_rounds", "critpath_ms", "rel_err"},
	}
	cores := p.Cores[len(p.Cores)-1]
	fine := scalingData(p, cores)
	full := synth.Concat(fine)
	for _, arity := range []int{2, 4, 8, 16} {
		mats := matsOf(fine)
		global, stats := parallel.Run(mats, parallel.FDSketcher(p.Ell, sketch.Options{}),
			parallel.TreeMerge, parallel.WithArity(arity), parallel.Sequential())
		basis := global.Basis(global.Ell())
		t.Append(arity, stats.MergeRounds,
			stats.CriticalPath.Seconds()*1000, sketch.RelProjErr(full, basis))
	}
	return t
}

// SVDBackendSweep times the two rotation kernels on FD-shaped buffers —
// the substitution the DESIGN.md documents (Gram trick vs one-sided
// Jacobi).
func SVDBackendSweep(seed uint64) *Table {
	t := &Table{
		Title:  "FD rotation kernel: Gram-trick SVD vs one-sided Jacobi",
		Note:   "gram cost grows linearly in d; jacobi super-linearly — gram is the default",
		Header: []string{"buffer", "gram_ms", "jacobi_ms", "speedup", "max_sigma_dev"},
	}
	g := rng.New(seed)
	for _, shape := range []struct{ m, d int }{{16, 256}, {32, 1024}, {64, 4096}} {
		buf := mat.RandGaussian(shape.m, shape.d, g)
		t0 := time.Now()
		_, sG, _ := mat.SVDGram(buf)
		gramMs := time.Since(t0).Seconds() * 1000
		t1 := time.Now()
		_, sJ, _ := mat.SVD(buf)
		jacMs := time.Since(t1).Seconds() * 1000
		var dev float64
		for i := range sG {
			if d := math.Abs(sG[i]-sJ[i]) / sJ[0]; d > dev {
				dev = d
			}
		}
		t.Append(formatShape(shape.m, shape.d), gramMs, jacMs, jacMs/gramMs, dev)
	}
	return t
}

func formatShape(m, d int) string {
	return fmt.Sprintf("%dx%d", m, d)
}
