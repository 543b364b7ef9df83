// Command lclssim generates simulated LCLS runs and writes them to the
// binary run format, playing the role of the facility DAQ for the
// offline analysis tools (the counterpart of the paper artifact's
// genData.py, but for detector images rather than synthetic matrices).
//
// With -listen the process serves the internal/obs observability
// endpoints (/metrics, /metrics.json, /healthz, /statusz,
// /debug/pprof/) and stays up after writing the run so generator
// timings can be scraped.
//
// With -mix the simulator produces a whole multi-tenant workload in one
// invocation: a comma-separated list of tenant=kind pairs (kinds beam
// and diffraction, interleavable freely) writes one run file per tenant
// into -out-dir, each with a distinct seed derived from -seed, ready to
// feed lclsmon -tenants.
//
// Usage:
//
//	lclssim -kind beam -frames 500 -size 64 -out run.lcls
//	lclssim -kind diffraction -frames 400 -size 128 -out run.lcls
//	lclssim -mix amo=beam,cxi=diffraction,mfx=beam -frames 200 -out-dir runs
package main

import (
	"flag"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"

	"arams/internal/audit"
	"arams/internal/lcls"
	"arams/internal/mat"
	"arams/internal/obs"
)

func main() {
	kind := flag.String("kind", "beam", "run type: beam | diffraction")
	frames := flag.Int("frames", 500, "number of frames")
	size := flag.Int("size", 64, "frame side length in pixels")
	out := flag.String("out", "run.lcls", "output path")
	seed := flag.Uint64("seed", 1, "RNG seed")
	exp := flag.String("experiment", "xppc00121", "experiment name stored in the header")
	runNum := flag.Int("run", 510, "run number stored in the header")
	exotic := flag.Float64("exotic", 0.02, "fraction of exotic shots (beam runs)")
	mix := flag.String("mix", "", "multi-tenant workload: comma-separated tenant=kind pairs; writes one run per tenant into -out-dir")
	outDir := flag.String("out-dir", "runs", "output directory for -mix run files (tenant.lcls per tenant)")
	listen := flag.String("listen", "", "serve /metrics, /statusz, /debug/pprof on this address (e.g. :9091)")
	verbosity := flag.Int("v", 0, "log verbosity: 0=info, 1=debug")
	flag.Parse()

	level := slog.LevelInfo
	if *verbosity >= 1 {
		level = slog.LevelDebug
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level})))
	slog.Info("starting", "go", runtime.Version(), "gomaxprocs", runtime.GOMAXPROCS(0), "mat_kernels", mat.KernelSet())

	hold := func() {}
	if *listen != "" {
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			fatal("starting observability server", err)
		}
		// Journal-only audit surface: the simulator has no sketch to
		// certify, but events other tooling records still show up.
		obs.Handle("/audit", audit.Handler(nil, nil))
		slog.Info("observability server listening",
			"addr", ln.Addr().String(),
			"endpoints", "/metrics /metrics.json /healthz /statusz /audit /debug/pprof/")
		go func() {
			if err := (&http.Server{Handler: obs.Handler()}).Serve(ln); err != nil {
				slog.Error("observability server stopped", "err", err)
			}
		}()
		hold = func() {
			slog.Info("generation complete; still serving observability endpoints — Ctrl-C to exit")
			ch := make(chan os.Signal, 1)
			signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
			<-ch
		}
	}

	if *mix != "" {
		// Multi-tenant workload: one run file per tenant, each with a
		// seed and run number derived from its position so the streams
		// differ but the whole workload regenerates reproducibly.
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal("creating output directory", err)
		}
		tenants := 0
		for _, part := range strings.Split(*mix, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			name, tkind, ok := strings.Cut(part, "=")
			if !ok || name == "" {
				slog.Error("bad -mix entry (want tenant=kind)", "entry", part)
				os.Exit(1)
			}
			i := uint64(tenants)
			run := generate(tkind, *frames, *size, *seed+1+i*7919, *exotic,
				*exp, *runNum+tenants)
			writeRun(run, filepath.Join(*outDir, name+".lcls"), tkind, *size)
			tenants++
		}
		if tenants == 0 {
			slog.Error("-mix named no tenants")
			os.Exit(1)
		}
		slog.Info("workload written", "tenants", tenants, "dir", *outDir)
		hold()
		return
	}

	run := generate(*kind, *frames, *size, *seed, *exotic, *exp, *runNum)
	writeRun(run, *out, *kind, *size)
	hold()
}

// generate synthesizes one run of the given kind.
func generate(kind string, frames, size int, seed uint64, exotic float64, exp string, runNum int) *lcls.Run {
	genSpan := obs.StartSpan("generate")
	framesGenerated := obs.Default().Counter("arams_sim_frames_total")
	run := &lcls.Run{Experiment: exp, RunNumber: runNum}
	switch kind {
	case "beam":
		run.Detector = lcls.BeamDetector
		bg := lcls.NewBeamGenerator(lcls.BeamConfig{
			Size: size, ExoticFrac: exotic, Seed: seed,
		})
		for i := 0; i < frames; i++ {
			f := bg.Next()
			label := 0
			if f.Params.Exotic {
				label = 1
			}
			run.Append(f.Image, label)
			framesGenerated.Inc()
		}
	case "diffraction":
		run.Detector = lcls.AreaDetector
		dg := lcls.NewDiffractionGenerator(lcls.DiffractionConfig{
			Size: size, Seed: seed,
		})
		fs, labels := dg.Generate(frames)
		for i, f := range fs {
			run.Append(f.Image, labels[i])
			framesGenerated.Inc()
		}
	default:
		slog.Error("unknown kind (want beam or diffraction)", "kind", kind)
		os.Exit(1)
	}
	genDur := genSpan.End()
	slog.Debug("generation finished", "kind", kind, "duration", genDur.Round(1e6))
	return run
}

// writeRun writes one run file and logs the result.
func writeRun(run *lcls.Run, path, kind string, size int) {
	writeSpan := obs.StartSpan("write_run")
	f, err := os.Create(path)
	if err != nil {
		fatal("creating output file", err)
	}
	n, err := run.WriteTo(f)
	if err != nil {
		fatal("writing run", err)
	}
	if err := f.Close(); err != nil {
		fatal("closing run file", err)
	}
	writeSpan.End()

	slog.Info("run written",
		"kind", kind, "experiment", run.Experiment, "run", run.RunNumber,
		"frames", run.Len(), "size", size,
		"megabytes", float64(n)/1e6, "path", path)
}

func fatal(msg string, err error) {
	slog.Error(msg, "err", err)
	os.Exit(1)
}
