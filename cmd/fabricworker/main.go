// Command fabricworker runs one distributed shard worker: a TCP server
// that sketches rows shipped by a fabric coordinator (lclsmon -fabric,
// which dials its fleet with fabric.DialFleet). The worker needs no
// sketch configuration of its own — the coordinator's Hello carries the
// shard-derived config — so a fleet is N identical processes:
//
//	fabricworker -listen :9750
//	fabricworker -listen 127.0.0.1:0 -addr-file worker.addr
//	lclsmon -in run.lcls -checkpoint-dir ckpt -fabric host1:9750,host2:9750
//
// With -listen port 0 the kernel picks a free port and -addr-file
// publishes the bound address for scripts and tests. -obs-listen serves
// the usual observability endpoints (/metrics, /statusz, /tracez,
// /debug/pprof/) next to the data plane (-obs-addr-file publishes its
// bound address). -flight-dir arms a flight recorder whose dumps carry
// -flight-id in their filenames, so a fleet sharing one dump directory
// stays collision-free and a coordinator fault fans out to correlated
// per-worker dumps. The process exits cleanly on SIGINT/SIGTERM; its
// sketch state dies with it by design — a reconnecting coordinator
// rebuilds the shard bit-exactly with restore + replay.
package main

import (
	"flag"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"arams/internal/fabric"
	"arams/internal/obs"
)

func main() {
	listen := flag.String("listen", ":9750", "data-plane listen address (host:port; port 0 for ephemeral)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file (for port-0 listens)")
	obsListen := flag.String("obs-listen", "", "serve /metrics, /statusz, /debug/pprof on this address")
	obsAddrFile := flag.String("obs-addr-file", "", "write the bound observability address to this file (for port-0 obs listens)")
	flightDir := flag.String("flight-dir", "", "arm the flight recorder, dumping to this directory on coordinator fan-out triggers")
	flightID := flag.String("flight-id", "", "stable process identity embedded in flight dump filenames (default: listen address)")
	verbosity := flag.Int("v", 0, "log verbosity: 0=info, 1=debug")
	flag.Parse()

	level := slog.LevelInfo
	if *verbosity >= 1 {
		level = slog.LevelDebug
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level})))

	w, err := fabric.NewWorker(*listen)
	if err != nil {
		slog.Error("starting worker", "err", err)
		os.Exit(1)
	}
	slog.Info("fabric worker serving", "addr", w.Addr())

	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(w.Addr()+"\n"), 0o644); err != nil {
			slog.Error("writing addr file", "err", err)
			os.Exit(1)
		}
	}
	if *flightDir != "" {
		ident := *flightID
		if ident == "" {
			ident = w.Addr()
		}
		if _, err := obs.Default().ArmFlightRecorder(obs.FlightConfig{
			Dir: *flightDir, Identity: ident,
		}); err != nil {
			slog.Error("arming flight recorder", "err", err)
			os.Exit(1)
		}
		slog.Info("flight recorder armed", "dir", *flightDir, "identity", ident)
	}
	if *obsListen != "" {
		ln, err := net.Listen("tcp", *obsListen)
		if err != nil {
			slog.Error("starting observability server", "err", err)
			os.Exit(1)
		}
		slog.Info("observability server listening", "addr", ln.Addr().String())
		if *obsAddrFile != "" {
			if err := os.WriteFile(*obsAddrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
				slog.Error("writing obs addr file", "err", err)
				os.Exit(1)
			}
		}
		go func() {
			if err := (&http.Server{Handler: obs.Handler()}).Serve(ln); err != nil {
				slog.Error("observability server stopped", "err", err)
			}
		}()
	}

	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
	slog.Info("shutting down", "frames_absorbed", w.Frames())
	w.Close()
}
