package fabric

import (
	"fmt"

	"arams/internal/audit"
	"arams/internal/engine"
	"arams/internal/obs"
	"arams/internal/sketch"
)

var obsFabricWorkers = obs.Default().Gauge("arams_fabric_workers")

// DialFleet dials one Remote per worker address — worker i, named
// "worker<i>", serves shard i with engine.ShardSketchConfig(base, i), so
// routing and RNG semantics are those of an all-local engine — then
// sets the arams_fabric_workers gauge and journals fabric_up. A worker
// that cannot be dialed has its shard start degraded to in-process
// sketching (journaled), as DialRemote does. The coordinator hands the
// remotes to its engine as Config.Backends, shard i to slot i.
func DialFleet(addrs []string, base sketch.Config, cfg RemoteConfig) []*Remote {
	remotes := make([]*Remote, len(addrs))
	for i, addr := range addrs {
		remotes[i] = DialRemote(fmt.Sprintf("worker%d", i), addr, uint32(i),
			engine.ShardSketchConfig(base, i), cfg)
	}
	obsFabricWorkers.SetInt(len(remotes))
	audit.Default().Record("fabric_up",
		"coordinator connected to worker fleet",
		audit.A("workers", float64(len(remotes))))
	return remotes
}
