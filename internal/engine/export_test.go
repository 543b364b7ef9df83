package engine

import (
	"arams/internal/mat"
	"arams/internal/obs"
	"arams/internal/sketch"
)

// Basis is ReadWindow's basis and rank without the window, and its read
// is never released: the tests hold it for as long as they like, and its
// storage goes to the collector. (nil, 0) before the first frame.
func (e *Engine) Basis(k int) (*mat.Matrix, int) {
	b, ell := e.basis(obs.SpanContext{}, k, new(lease))
	return b, ell
}

// Held returns the engine's open reads and the frames it keeps parked
// for them.
func (e *Engine) Held() (holds, parked int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.holds), len(e.parked)
}

// ShardState is shard i's sketcher state, read without the gate and
// without marking a window frame shared as State does, so a test can
// follow a shard's sketch while the ring recycles its frames.
func (e *Engine) ShardState(i int) *sketch.ARAMSState {
	st, _ := e.shards[i].State()
	return st
}
