// Command aramsbench regenerates every table and figure of the paper's
// evaluation section on synthetic and simulated-LCLS data.
//
// Usage:
//
//	aramsbench -exp all             # run everything at laptop scale
//	aramsbench -exp fig1            # Fig. 1 ablation panels
//	aramsbench -exp fig1sv          # Fig. 1 singular-value panel
//	aramsbench -exp fig2            # Fig. 2 strong scaling
//	aramsbench -exp fig3            # Fig. 3 error vs cores
//	aramsbench -exp fig5            # Fig. 5 beam-profile embedding
//	aramsbench -exp fig6            # Fig. 6 diffraction clustering
//	aramsbench -exp runtime         # §VI-B throughput study
//	aramsbench -exp probes          # Alg. 1 probe-count ablation
//	aramsbench -exp beta            # priority-sampling β ablation
//	aramsbench -exp fig1 -full      # paper-scale dimensions (slow)
//	aramsbench -exp fig2 -csv       # emit CSV instead of tables
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"arams/internal/bench"
	"arams/internal/viz"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all|fig1sv|fig1|fig2|fig3|fig5|fig6|runtime|probes|beta|estimators|arity|svd|baselines")
	full := flag.Bool("full", false, "use paper-scale dimensions (slow, memory-hungry)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	htmlDir := flag.String("htmldir", "", "also write interactive HTML figures to this directory")
	seed := flag.Uint64("seed", 1, "base RNG seed")
	flag.Parse()

	fig1 := bench.DefaultFig1()
	scaling := bench.DefaultScaling()
	embed := bench.DefaultEmbed()
	rt := bench.DefaultRuntime()
	if *full {
		fig1 = bench.FullFig1()
		scaling = bench.FullScaling()
		embed.Frames = 2000
		embed.ImgSize = 96
		rt = bench.FullRuntime()
	}
	fig1.Seed = *seed
	scaling.Seed = *seed + 1
	embed.Seed = *seed + 2
	rt.Seed = *seed + 3

	var tables []*bench.Table
	add := func(ts ...*bench.Table) { tables = append(tables, ts...) }
	var charts []namedChart
	addChart := func(name string, c *viz.Chart) {
		if *htmlDir != "" {
			charts = append(charts, namedChart{name: name, chart: c})
		}
	}

	run := func(name string) {
		switch name {
		case "fig1sv":
			t := bench.Fig1SingularValues(fig1)
			add(t)
			addChart("fig1_singular_values", bench.ChartFig1SV(t))
		case "fig1":
			ts := bench.Fig1ErrorRuntime(fig1)
			add(ts...)
			for i, t := range ts {
				addChart(fmt.Sprintf("fig1_panel%d", i+2), bench.ChartFig1(t))
			}
		case "fig2":
			t := bench.Fig2Scaling(scaling)
			add(t)
			addChart("fig2_strong_scaling", bench.ChartFig2(t))
		case "fig3":
			t := bench.Fig3Error(scaling)
			add(t)
			addChart("fig3_error_vs_cores", bench.ChartFig3(t))
		case "fig5":
			add(bench.Fig5BeamProfile(embed)...)
		case "fig6":
			add(bench.Fig6Diffraction(embed))
		case "runtime":
			add(bench.RuntimeStudy(rt))
		case "probes":
			t := bench.ProbeSweep(*seed + 4)
			add(t)
			addChart("ablation_probes", bench.ChartXYColumns(t, 0, 1, true))
		case "beta":
			t := bench.BetaSweep(fig1)
			add(t)
			addChart("ablation_beta", bench.ChartXYColumns(t, 0, 1, false))
		case "estimators":
			add(bench.EstimatorSweep(*seed + 5))
		case "arity":
			add(bench.AritySweep(scaling))
		case "svd":
			add(bench.SVDBackendSweep(*seed + 6))
		case "baselines":
			add(bench.BaselineSweep(fig1))
		default:
			fmt.Fprintf(os.Stderr, "aramsbench: unknown experiment %q\n", name)
			flag.Usage()
			os.Exit(2)
		}
	}

	if *exp == "all" {
		for _, name := range []string{
			"fig1sv", "fig1", "fig2", "fig3", "fig5", "fig6",
			"runtime", "probes", "beta", "estimators", "arity", "svd",
			"baselines",
		} {
			fmt.Fprintf(os.Stderr, "running %s...\n", name)
			run(name)
		}
	} else {
		run(*exp)
	}

	for _, t := range tables {
		if *csv {
			fmt.Printf("# %s\n", t.Title)
			t.CSV(os.Stdout)
			fmt.Println()
		} else {
			t.Print(os.Stdout)
		}
	}

	if *htmlDir != "" {
		if err := os.MkdirAll(*htmlDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "aramsbench: %v\n", err)
			os.Exit(1)
		}
		for _, nc := range charts {
			path := filepath.Join(*htmlDir, nc.name+".html")
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "aramsbench: %v\n", err)
				os.Exit(1)
			}
			if err := nc.chart.WriteHTML(f); err != nil {
				fmt.Fprintf(os.Stderr, "aramsbench: %v\n", err)
				os.Exit(1)
			}
			f.Close()
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}
}

type namedChart struct {
	name  string
	chart *viz.Chart
}
