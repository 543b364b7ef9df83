package fabric

import (
	"fmt"

	"arams/internal/audit"
	"arams/internal/engine"
	"arams/internal/obs"
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

// NewCoordinator dials every worker and builds the engine around them.
// A worker that cannot be dialed follows the remote recovery policy:
// by default its shard degrades to in-process sketching (journaled),
// under RemoteConfig.NoLocalFallback the construction fails instead.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("fabric: coordinator needs at least one worker address")
	}
	c := &Coordinator{}
	backends := make([]engine.Backend, len(cfg.Workers))
	for i, addr := range cfg.Workers {
		name := fmt.Sprintf("worker%d", i)
		r, err := DialRemote(name, addr, uint32(i),
			engine.ShardSketchConfig(cfg.Engine.Sketch, i), cfg.Remote)
		if err != nil {
			for _, prev := range c.remotes {
				prev.Close()
			}
			return nil, fmt.Errorf("fabric: dial %s (%s): %w", name, addr, err)
		}
		c.remotes = append(c.remotes, r)
		backends[i] = r
	}
	ecfg := cfg.Engine
	ecfg.Backends = backends
	c.eng = engine.New(ecfg)
	obsFabricWorkers.SetInt(len(cfg.Workers))
	audit.Default().Record("fabric_up",
		"coordinator connected to worker fleet",
		audit.A("workers", float64(len(cfg.Workers))))
	return c, nil
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
