package fabric_test

import (
	"runtime"
	"testing"
	"time"

	"arams/internal/audit"
	"arams/internal/engine"
	"arams/internal/fabric"
	"arams/internal/fabric/fabrictest"
	"arams/internal/obs"
	"arams/internal/parallel"
	"arams/internal/sketch"
)

// TestStopDuringHungReconcile is the regression test for the pending-leg
// leak: with a worker link that suddenly stalls, a reconcile's fetch leg
// must be abandoned at Retry.LegTimeout (not held to the network
// timeout), engine Stop must return promptly, the flight recorder must
// capture the aborted leg, and — because every fabric I/O runs under a
// connection deadline — the abandoned fetch goroutine must exit on its
// own instead of leaking.
func TestStopDuringHungReconcile(t *testing.T) {
	const legTimeout = 100 * time.Millisecond
	const opTimeout = 400 * time.Millisecond

	fr, err := obs.Default().ArmFlightRecorder(obs.FlightConfig{
		Dir: t.TempDir(), Cooldown: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()

	workers, addrs, err := fabric.StartLoopbackWorkers(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, w := range workers {
			w.Close()
		}
	}()
	p, err := fabrictest.New(addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	coord, err := fabric.NewCoordinator(fabric.CoordinatorConfig{
		Workers: []string{addrs[0], p.Addr()},
		Engine: engine.Config{
			Shards:         2,
			Sketch:         sketch.Config{Ell0: 8, Beta: 1, Seed: 13},
			Window:         32,
			ReconcileRetry: parallel.Retry{MaxAttempts: 1, LegTimeout: legTimeout},
		},
		Remote: fabric.RemoteConfig{
			DialTimeout:       200 * time.Millisecond,
			OpTimeout:         opTimeout,
			HeartbeatEvery:    -1, // deterministic goroutine accounting
			ReconnectAttempts: 1,
			ReconnectBackoff:  time.Millisecond,
			// The leg must actually be lost — no bit-exact local stand-in.
			NoLocalFallback: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	eng := coord.Engine()

	eng.IngestVecs(cloneVecs(testVecs(64, 16, 53)), nil)
	baseline := runtime.NumGoroutine()
	seq := audit.Default().Seq()

	// Stall the link: every chunk now takes far longer than the leg
	// timeout, so the in-flight reconcile leg hangs at the wire.
	p.SetDelay(2 * opTimeout)

	reconcileDone := make(chan struct{})
	go func() {
		defer close(reconcileDone)
		if g := eng.GlobalSketch(); g == nil {
			t.Error("no global sketch from surviving shard")
		}
	}()
	time.Sleep(20 * time.Millisecond) // let the reconcile reach the hung leg

	start := time.Now()
	eng.Stop()
	if elapsed := time.Since(start); elapsed > legTimeout+300*time.Millisecond {
		t.Errorf("Stop blocked %v behind a hung reconcile leg (leg timeout %v)", elapsed, legTimeout)
	}

	select {
	case <-reconcileDone:
	case <-time.After(legTimeout + time.Second):
		t.Fatal("reconcile still pending long after the leg timeout — pending leg leaked")
	}

	if evs := audit.Default().Query(audit.Query{Kind: audit.KindRemoteLegLost, SinceSeq: seq}); len(evs) == 0 {
		t.Error("lost reconcile leg not journaled")
	}
	// FlightTrigger("remote_leg_lost") must have produced a dump of the
	// aborted leg's telemetry.
	deadline := time.Now().Add(2 * time.Second)
	for fr.Dumps() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if fr.Dumps() == 0 {
		t.Error("flight recorder captured no dump for the aborted leg")
	}

	// The abandoned fetch goroutine is deadline-bounded (OpTimeout): it
	// must exit on its own, leaving no leak behind.
	deadline = time.Now().Add(2*opTimeout + 2*time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if ng := runtime.NumGoroutine(); ng > baseline {
		t.Errorf("%d goroutines alive after recovery window, baseline %d — fetch leg leaked", ng, baseline)
	}
}
