package engine

import (
	"arams/internal/mat"
	"arams/internal/obs"
)

// Basis is ReadWindow's basis and rank without the window, and its read
// is never released: the tests hold it for as long as they like, and its
// storage goes to the collector. (nil, 0) before the first frame.
func (e *Engine) Basis(k int) (*mat.Matrix, int) {
	b, ell, _ := e.basis(obs.SpanContext{}, k)
	return b, ell
}
