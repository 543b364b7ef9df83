//go:build !amd64 || purego

package mat

import "testing"

// forEachKernelSet runs fn as a "go" sub-benchmark: without the
// assembly the Go inner loops are the only kernel set.
func forEachKernelSet(b *testing.B, fn func(b *testing.B)) {
	b.Run("go", fn)
}

// onGoKernels runs fn: the Go inner loops are already the ones running.
func onGoKernels(fn func()) { fn() }
