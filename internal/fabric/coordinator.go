package fabric

import (
	"fmt"

	"arams/internal/audit"
	"arams/internal/engine"
	"arams/internal/obs"
	"arams/internal/sketch"
)

var obsFabricWorkers = obs.Default().Gauge("arams_fabric_workers")

// CoordinatorConfig assembles a distributed engine: one worker address
// per shard slot, the engine configuration the coordinator runs
// locally (routing, window, reconcile on read, audit), and the
// per-connection remote policy.
type CoordinatorConfig struct {
	// Workers lists worker addresses; worker i serves shard i. The
	// engine's Shards is overridden to len(Workers).
	Workers []string
	// Engine is the coordinator-local engine configuration. Sketch is
	// the base config; each worker gets engine.ShardSketchConfig(Sketch,
	// i) via its Hello, so routing and RNG semantics are identical to an
	// all-local engine with the same shard count.
	Engine engine.Config
	// Remote tunes dialing, deadlines, heartbeats, and the recovery
	// ladder for every worker connection.
	Remote RemoteConfig
}

// Coordinator owns a distributed engine: the ordinary streaming engine
// with one Remote backend per worker. Use Engine() for ingest,
// snapshots, and checkpointing exactly as in single-process mode.
type Coordinator struct {
	eng     *engine.Engine
	remotes []*Remote

	flightCancel func() // unregisters the fleet flight fan-out hook
}

// NewCoordinator dials every worker (DialFleet) and builds the engine
// around them. A worker that cannot be dialed has its shard start
// degraded to in-process sketching (journaled), as DialRemote does.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("fabric: coordinator needs at least one worker address")
	}
	c := &Coordinator{remotes: DialFleet(cfg.Workers, cfg.Engine.Sketch, cfg.Remote)}
	ecfg := cfg.Engine
	ecfg.Backends = make([]engine.Backend, len(c.remotes))
	for i, r := range c.remotes {
		ecfg.Backends[i] = r
	}
	c.eng = engine.New(ecfg)
	return c, nil
}

// DialFleet dials one Remote per worker address — worker i, named
// "worker<i>", serves shard i with engine.ShardSketchConfig(base, i), so
// routing and RNG semantics are those of an all-local engine — then
// sets the arams_fabric_workers gauge and journals fabric_up. It is the
// one dial loop: NewCoordinator and cmd/lclsmon's -fabric mode both
// call it.
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

// Engine returns the distributed streaming engine.
func (c *Coordinator) Engine() *engine.Engine { return c.eng }

// Remotes returns the per-shard remote backends (introspection:
// Degraded(), Certificate()).
func (c *Coordinator) Remotes() []*Remote { return c.remotes }

// ArmFleet attaches a fleet view to every worker connection: each
// successful heartbeat fetches that worker's obs registry snapshot and
// feeds it to the view, so a /fleetz handler over fv tracks the whole
// fleet at heartbeat cadence.
func (c *Coordinator) ArmFleet(fv *obs.FleetView) {
	for _, r := range c.remotes {
		r.ArmFleet(fv)
	}
}

// ArmFleetFlight turns every coordinator-side flight dump into a
// fleet-wide one: the dump's trigger ID fans out to all workers, each
// dumps its own flight ring under the same ID, and the correlated dump
// names are journaled. Close unregisters the hook.
func (c *Coordinator) ArmFleetFlight() {
	if c.flightCancel == nil {
		c.flightCancel = ArmFleetFlight(c.remotes)
	}
}

// Close stops the engine (draining the async queue) and closes every
// worker connection.
func (c *Coordinator) Close() error {
	if c.flightCancel != nil {
		c.flightCancel()
		c.flightCancel = nil
	}
	return c.eng.Close()
}

// StartLoopbackWorkers spins up n in-process workers on ephemeral
// localhost ports — the test and benchmark harness for fabric runs
// without separate processes. Callers own the workers (Close each) and
// typically pass the addresses to NewCoordinator.
func StartLoopbackWorkers(n int) ([]*Worker, []string, error) {
	workers := make([]*Worker, 0, n)
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		w, err := NewWorker("127.0.0.1:0")
		if err != nil {
			for _, prev := range workers {
				prev.Close()
			}
			return nil, nil, err
		}
		workers = append(workers, w)
		addrs = append(addrs, w.Addr())
	}
	return workers, addrs, nil
}
