package bench

import (
	"arams/internal/mat"
	"arams/internal/parallel"
	"arams/internal/sketch"
	"arams/internal/synth"
)

// ScalingParams sizes the Fig. 2/3 strong-scaling study. The paper
// sketches a 2000×1,658,880 matrix (2-megapixel frames) with ℓ=200 on
// up to 128 MPI ranks; the defaults shrink the feature dimension so the
// study fits in laptop memory, which preserves the scaling *shape*
// (the serial merge plateaus, the tree merge keeps scaling) because
// the rotation count per strategy is dimension-independent.
type ScalingParams struct {
	N, D, Rank int
	Ell        int
	Cores      []int // worker counts to sweep
	Seed       uint64
}

// DefaultScaling returns laptop-scale parameters. The cores sweep goes
// beyond the host CPU count on purpose: the critical-path runtime
// column models ideal hardware (like the paper's 128 MPI ranks), while
// the wall-clock column reflects whatever this host can actually do.
func DefaultScaling() ScalingParams {
	return ScalingParams{
		N: 1024, D: 4096, Rank: 64, Ell: 48,
		Cores: []int{1, 2, 4, 8, 16, 32, 64}, Seed: 2,
	}
}

// FullScaling returns parameters closer to the paper's run (heavy:
// several GiB of data).
func FullScaling() ScalingParams {
	p := DefaultScaling()
	p.N, p.D, p.Rank, p.Ell = 2000, 131072, 128, 200
	return p
}

// scalingData builds the cubically-decaying dataset shards used by both
// figures, mirroring §V.3's generation.
func scalingData(p ScalingParams, shards int) []*synth.Dataset {
	per := p.N / shards
	return synth.GenerateSharded(synth.Params{
		D: p.D, Rank: p.Rank, Decay: synth.Cubic, Seed: p.Seed,
	}, shards, per, 0.05)
}

// Fig2Scaling reproduces Fig. 2: runtime versus worker count for
// tree-merge and serial-merge parallel Frequent Directions.
//
// Two runtimes are reported. wall_ms is the measured wall time of the
// goroutine implementation on this host — faithful only when the host
// has at least as many cores as workers. critpath_ms is the measured
// strong-scaling critical path (parallel.Stats.CriticalPath): the
// slowest worker's sketch time plus the per-level slowest merge (tree)
// or every merge (serial fold). The critical path is what the paper's
// MPI runtime measures, and it reproduces Fig. 2's shape — near-linear
// scaling for the tree, a plateau for the serial merge — on any
// machine, including single-core CI boxes.
func Fig2Scaling(p ScalingParams) *Table {
	t := &Table{
		Title: "Fig.2: strong scaling — runtime vs cores (log-log in the paper)",
		Note: "expect: tree-merge critpath falls ~linearly with cores; serial-merge " +
			"plateaus (paper: at ~16 cores); merge rounds log vs linear",
		Header: []string{"cores", "strategy", "work_ms", "critpath_ms", "speedup",
			"efficiency", "merge_rounds", "merge_rotations"},
	}
	maxCores := p.Cores[len(p.Cores)-1]
	fine := scalingData(p, maxCores)
	baselines := map[parallel.MergeStrategy]float64{}
	for _, cores := range p.Cores {
		mats := groupShards(fine, cores)
		for _, strat := range []parallel.MergeStrategy{parallel.TreeMerge, parallel.SerialMerge} {
			_, stats := parallel.Run(mats, parallel.FDSketcher(p.Ell, sketch.Options{}), strat, parallel.Sequential())
			workMs := stats.Total.Seconds() * 1000
			critMs := stats.CriticalPath.Seconds() * 1000
			if cores == p.Cores[0] {
				baselines[strat] = critMs
			}
			speedup := baselines[strat] / critMs
			t.Append(cores, strat.String(), workMs, critMs, speedup,
				speedup/float64(cores), stats.MergeRounds, stats.MergeRotations)
		}
	}
	return t
}

// groupShards concatenates the finest-granularity shards into `cores`
// contiguous groups, so every worker count sees the same underlying
// data.
func groupShards(fine []*synth.Dataset, cores int) []*mat.Matrix {
	per := len(fine) / cores
	out := make([]*mat.Matrix, 0, cores)
	for g := 0; g < cores; g++ {
		out = append(out, synth.Concat(fine[g*per:(g+1)*per]))
	}
	return out
}

// Fig3Error reproduces Fig. 3: sketch error versus worker count for
// both merge strategies; the tree merge's error must track the serial
// merge's closely.
func Fig3Error(p ScalingParams) *Table {
	t := &Table{
		Title:  "Fig.3: error vs cores (log-log in the paper)",
		Note:   "expect: tree-merge error tracks serial-merge error across all core counts",
		Header: []string{"cores", "tree_rel_err", "serial_rel_err", "ratio"},
	}
	maxCores := p.Cores[len(p.Cores)-1]
	fine := scalingData(p, maxCores)
	full := synth.Concat(fine)
	for _, cores := range p.Cores {
		mats := groupShards(fine, cores)
		var errs [2]float64
		for i, strat := range []parallel.MergeStrategy{parallel.TreeMerge, parallel.SerialMerge} {
			global, _ := parallel.Run(mats, parallel.FDSketcher(p.Ell, sketch.Options{}), strat)
			basis := global.Basis(global.Ell())
			errs[i] = sketch.RelProjErr(full, basis)
		}
		ratio := 0.0
		if errs[1] > 0 {
			ratio = errs[0] / errs[1]
		}
		t.Append(cores, errs[0], errs[1], ratio)
	}
	return t
}

func matsOf(shards []*synth.Dataset) []*mat.Matrix {
	out := make([]*mat.Matrix, len(shards))
	for i, s := range shards {
		out[i] = s.A
	}
	return out
}
