package fabric_test

import (
	"errors"
	"testing"

	"arams/internal/engine"
	"arams/internal/fabric"
	"arams/internal/obs"
	"arams/internal/parallel"
	"arams/internal/sketch"
)

// TestClosedBackendsFailFast holds both engine.Backend implementations
// to the interface's Close contract: after Close every call fails fast.
// Absorb, Snapshot, State, Restore and Certificate return
// parallel.ErrBackendClosed, Basis reports no sketch, and an Absorb
// never silently starts a fresh one. A closed local shard has handed
// its sketch buffer back to the vector pool, so it also reports rank 0;
// a remote one answers Ell from its last acknowledged rank.
func TestClosedBackendsFailFast(t *testing.T) {
	const n, d = 24, 12
	scfg := sketch.Config{Ell0: 4, Beta: 1, Seed: 7}
	vecs := testVecs(n, d, 61)

	workers, addrs, err := startLoopbackWorkers(1)
	if err != nil {
		t.Fatal(err)
	}
	defer workers[0].Close()
	remote := fabric.DialRemote("w0", addrs[0], 0, scfg, quietRemote())
	for _, tc := range []struct {
		name  string
		b     engine.Backend
		local bool
	}{
		{"local", engine.NewLocalBackend(scfg), true},
		{"remote", remote, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.b
			if _, err := b.Absorb(obs.SpanContext{}, vecs, nil); err != nil {
				t.Fatal(err)
			}
			st, err := b.State()
			if err != nil || st == nil {
				t.Fatalf("State before Close: %v, %v", st, err)
			}
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			closed := func(what string, err error) {
				t.Helper()
				if !errors.Is(err, parallel.ErrBackendClosed) {
					t.Errorf("%s after Close: %v, want %v", what, err, parallel.ErrBackendClosed)
				}
			}
			_, err = b.Absorb(obs.SpanContext{}, vecs[:1], nil)
			closed("Absorb", err)
			fd, err := b.Snapshot(obs.SpanContext{})
			closed("Snapshot", err)
			if fd != nil {
				t.Error("Snapshot after Close returned a sketch")
			}
			got, err := b.State()
			closed("State", err)
			if got != nil {
				t.Error("State after Close returned a state")
			}
			closed("Restore", b.Restore(st))
			_, err = b.Certificate()
			closed("Certificate", err)
			if basis, ell := b.Basis(2); basis != nil || ell != 0 {
				t.Errorf("Basis after Close: %v, ell %d; want nil, 0", basis, ell)
			}
			if tc.local && b.Ell() != 0 {
				t.Errorf("Ell after Close = %d, want 0", b.Ell())
			}
			// Neither the refused Absorb nor the refused Restore brought
			// a sketch back.
			if basis, _ := b.Basis(2); basis != nil {
				t.Error("a refused call revived the sketch")
			}
			if err := b.Close(); err != nil {
				t.Errorf("second Close: %v", err)
			}
		})
	}
}
