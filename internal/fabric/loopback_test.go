package fabric_test

import (
	"arams/internal/engine"
	"arams/internal/fabric"
)

// startLoopbackWorkers spins up n in-process workers on ephemeral
// localhost ports, so fabric runs need no separate processes. Callers
// own the workers and Close each.
func startLoopbackWorkers(n int) ([]*fabric.Worker, []string, error) {
	workers := make([]*fabric.Worker, 0, n)
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		w, err := fabric.NewWorker("127.0.0.1:0")
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

// fleetConfig wires ecfg the way lclsmon -fabric wires its pipeline
// config: DialFleet dials one Remote per address, and remote i becomes
// the backend of shard slot i. Closing the engine built from the
// returned config closes the remotes.
func fleetConfig(addrs []string, ecfg engine.Config, rcfg fabric.RemoteConfig) (engine.Config, []*fabric.Remote) {
	remotes := fabric.DialFleet(addrs, ecfg.Sketch, rcfg)
	ecfg.Backends = make([]engine.Backend, len(remotes))
	for i, r := range remotes {
		ecfg.Backends[i] = r
	}
	return ecfg, remotes
}

// newFleetEngine is engine.New over fleetConfig.
func newFleetEngine(addrs []string, ecfg engine.Config, rcfg fabric.RemoteConfig) (*engine.Engine, []*fabric.Remote) {
	cfg, remotes := fleetConfig(addrs, ecfg, rcfg)
	return engine.New(cfg), remotes
}
