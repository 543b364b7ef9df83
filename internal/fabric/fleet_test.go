package fabric_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"arams/internal/audit"
	"arams/internal/fabric"
	"arams/internal/obs"
	"arams/internal/sketch"
)

// TestDialFleetReportsTheFleet: the one dial loop — what lclsmon
// -fabric and the fabric tests' fleetConfig run — sets the
// arams_fabric_workers gauge to the fleet size and journals exactly one fabric_up event, with every
// worker bound to its shard slot and live.
func TestDialFleetReportsTheFleet(t *testing.T) {
	workers, addrs, err := startLoopbackWorkers(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, w := range workers {
			w.Close()
		}
	}()
	gauge := obs.Default().Gauge("arams_fabric_workers")
	gauge.SetInt(0)
	seq := audit.Default().Seq()

	remotes := fabric.DialFleet(addrs, sketch.Config{Ell0: 8, Beta: 1, Seed: 3}, quietRemote())
	defer func() {
		for _, r := range remotes {
			r.Close()
		}
	}()
	if got := gauge.Value(); got != 2 {
		t.Errorf("arams_fabric_workers = %v, want 2", got)
	}
	evs := audit.Default().Query(audit.Query{Kind: "fabric_up", SinceSeq: seq})
	if len(evs) != 1 || evs[0].Get("workers", 0) != 2 {
		t.Errorf("fabric_up events %+v, want one with workers=2", evs)
	}
	for i, r := range remotes {
		if want := "worker" + string(rune('0'+i)); r.Name() != want || r.Degraded() {
			t.Errorf("remote %d: name %q degraded %v, want %q live", i, r.Name(), r.Degraded(), want)
		}
	}
}

// TestArmFleetListsWorkerAtOnce: arming a fleet view fetches each
// connected worker's snapshot at once, so /fleetz lists the fleet even
// when no heartbeat ever fires (a stream shorter than one beat).
func TestArmFleetListsWorkerAtOnce(t *testing.T) {
	workers, addrs, err := startLoopbackWorkers(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, w := range workers {
			w.Close()
		}
	}()
	remotes := fabric.DialFleet(addrs, sketch.Config{Ell0: 8, Beta: 1, Seed: 3}, quietRemote())
	defer func() {
		for _, r := range remotes {
			r.Close()
		}
	}()
	fv := obs.NewFleetView(time.Minute)
	for _, r := range remotes {
		r.ArmFleet(fv)
	}
	var buf bytes.Buffer
	fv.WritePrometheus(&buf)
	for _, r := range remotes {
		if want := `arams_fleet_worker_up{worker="` + r.Name() + `"} 1`; !strings.Contains(buf.String(), want) {
			t.Errorf("no %s right after ArmFleet:\n%s", want, buf.String())
		}
	}
}
