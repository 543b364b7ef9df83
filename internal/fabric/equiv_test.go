package fabric_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"arams/internal/engine"
	"arams/internal/fabric"
	"arams/internal/mat"
	"arams/internal/obs"
	"arams/internal/rng"
	"arams/internal/sketch"
)

// testVecs builds the same deterministic low-rank-plus-noise stream the
// engine tests use, so the sketch has real directions to track.
func testVecs(n, d int, seed uint64) [][]float64 {
	g := rng.New(seed)
	base := make([][]float64, 3)
	for i := range base {
		base[i] = make([]float64, d)
		for j := range base[i] {
			base[i][j] = g.Norm()
		}
	}
	vecs := make([][]float64, n)
	for i := range vecs {
		v := make([]float64, d)
		b := base[i%len(base)]
		for j := range v {
			v[j] = 3*b[j] + 0.3*g.Norm()
		}
		vecs[i] = v
	}
	return vecs
}

func cloneVecs(vecs [][]float64) [][]float64 {
	out := make([][]float64, len(vecs))
	for i, v := range vecs {
		out[i] = append([]float64(nil), v...)
	}
	return out
}

func asMatrix(vecs [][]float64) *mat.Matrix {
	x := mat.New(len(vecs), len(vecs[0]))
	for i, v := range vecs {
		copy(x.Row(i), v)
	}
	return x
}

// sameMatrix requires bit-identical entries — the fabric claims
// equivalence, not approximation.
func sameMatrix(t *testing.T, what string, a, b *mat.Matrix) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("%s: one side nil (%v vs %v)", what, a == nil, b == nil)
	}
	if a == nil {
		return
	}
	ar, ac := a.Dims()
	br, bc := b.Dims()
	if ar != br || ac != bc {
		t.Fatalf("%s: dims %dx%d vs %dx%d", what, ar, ac, br, bc)
	}
	for i := 0; i < ar; i++ {
		for j := 0; j < ac; j++ {
			if math.Float64bits(a.At(i, j)) != math.Float64bits(b.At(i, j)) {
				t.Fatalf("%s: entry (%d,%d) differs: %v vs %v", what, i, j, a.At(i, j), b.At(i, j))
			}
		}
	}
}

// quietRemote is the test-default remote policy: fail fast, no
// background heartbeat goroutines to pollute -race goroutine counts.
func quietRemote() fabric.RemoteConfig {
	return fabric.RemoteConfig{
		DialTimeout:       2 * time.Second,
		OpTimeout:         5 * time.Second,
		HeartbeatEvery:    -1,
		ReconnectAttempts: 2,
		ReconnectBackoff:  5 * time.Millisecond,
	}
}

// TestLoopbackEquivalence is the fabric acceptance test: a coordinator
// driving four remote workers over loopback TCP must be bit-identical
// to a single-process four-shard engine fed the same stream in the
// same batches — shard states, global sketch, and certificate all
// exactly equal, under round-robin routing.
func TestLoopbackEquivalence(t *testing.T) {
	const n, d, shards = 256, 24, 4
	scfg := sketch.Config{Ell0: 8, Beta: 1, Seed: 5}

	t.Run("round_robin", func(t *testing.T) {
		vecs := testVecs(n, d, 11)
		ecfg := engine.Config{
			Shards: shards,
			Sketch: scfg,
			Window: 32,
		}
		local := engine.New(ecfg)
		defer local.Close()

		workers, addrs, err := startLoopbackWorkers(shards)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			for _, w := range workers {
				w.Close()
			}
		}()
		remote, remotes := newFleetEngine(addrs, ecfg, quietRemote())
		defer remote.Close()

		// Same stream, same uneven batch boundaries, both engines.
		for lo := 0; lo < n; {
			hi := lo + 1 + (lo*7)%13
			if hi > n {
				hi = n
			}
			local.IngestVecs(cloneVecs(vecs[lo:hi]), nil)
			remote.IngestVecs(cloneVecs(vecs[lo:hi]), nil)
			lo = hi
		}

		if local.Ingested() != n || remote.Ingested() != n {
			t.Fatalf("ingested %d local, %d remote, want %d", local.Ingested(), remote.Ingested(), n)
		}
		for _, r := range remotes {
			if r.Degraded() {
				t.Fatalf("%s degraded during a clean run", r.Name())
			}
		}

		// Shard-by-shard checkpoint states must be deeply equal —
		// sampler RNG streams included.
		ls, rs := local.State(), remote.State()
		if len(ls.Shards) != shards || len(rs.Shards) != shards {
			t.Fatalf("shard state count: %d local, %d remote", len(ls.Shards), len(rs.Shards))
		}
		for i := range ls.Shards {
			if !reflect.DeepEqual(ls.Shards[i], rs.Shards[i]) {
				t.Errorf("shard %d state differs between local and fabric run", i)
			}
		}
		if ls.Ingests != rs.Ingests || len(ls.Frames) != len(rs.Frames) {
			t.Errorf("stream counters differ: %d/%d local vs %d/%d remote",
				ls.Ingests, len(ls.Frames), rs.Ingests, len(rs.Frames))
		}

		// Merged global sketch: bit-identical matrix, equal certificate.
		lg, rg := local.GlobalSketch(), remote.GlobalSketch()
		if lg == nil || rg == nil {
			t.Fatal("nil global sketch")
		}
		sameMatrix(t, "global sketch", lg.Sketch(), rg.Sketch())

		lc, rc := local.Certificate(), remote.Certificate()
		lc.Time, rc.Time = time.Time{}, time.Time{}
		if lc != rc {
			t.Errorf("certificates differ:\n local  %+v\n remote %+v", lc, rc)
		}

		// The certified bound must hold against the exact covariance
		// error of the stacked shard sketches it describes.
		x := asMatrix(vecs)
		exact := sketch.CovErr(x, stackedShards(rs))
		if bound := rc.CovBound(); exact > bound+1e-8*(1+rc.FrobMass) {
			t.Errorf("exact covariance error %v exceeds certified bound %v", exact, bound)
		}
	})
}

// TestLoopbackCheckpointRoundTrip pins the distributed checkpoint path:
// State() of a fabric engine restores into a fresh fabric engine (new
// workers) and the two streams continue identically.
func TestLoopbackCheckpointRoundTrip(t *testing.T) {
	const n, d, shards = 128, 16, 2
	vecs := testVecs(2*n, d, 23)
	ecfg := engine.Config{
		Shards: shards,
		Sketch: sketch.Config{Ell0: 8, Beta: 1, Seed: 9},
		Window: 24,
	}

	workers, addrs, err := startLoopbackWorkers(shards)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, w := range workers {
			w.Close()
		}
	}()
	first, _ := newFleetEngine(addrs, ecfg, quietRemote())
	defer first.Close()

	first.IngestVecs(cloneVecs(vecs[:n]), nil)
	ckptState := first.State()

	// Resume on a brand-new worker fleet via Backends + NewFromState:
	// the Restore RPC pushes each shard's state to its new worker.
	workers2, addrs2, err := startLoopbackWorkers(shards)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, w := range workers2 {
			w.Close()
		}
	}()
	cfg2, _ := fleetConfig(addrs2, ecfg, quietRemote())
	resumed, err := engine.NewFromState(cfg2, ckptState)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()

	// Reference: local engine over the whole stream.
	local := engine.New(ecfg)
	defer local.Close()
	local.IngestVecs(cloneVecs(vecs), nil)

	resumed.IngestVecs(cloneVecs(vecs[n:]), nil)

	lg, rg := local.GlobalSketch(), resumed.GlobalSketch()
	if lg == nil || rg == nil {
		t.Fatal("nil global sketch")
	}
	sameMatrix(t, "resumed global sketch", lg.Sketch(), rg.Sketch())
	lc, rc := local.Certificate(), resumed.Certificate()
	lc.Time, rc.Time = time.Time{}, time.Time{}
	if lc != rc {
		t.Errorf("resumed certificate differs:\n local   %+v\n resumed %+v", lc, rc)
	}
}

// TestLoopbackBasisIsSnapshotBasis: Remote.Basis decomposes a fetched
// snapshot, so it returns Snapshot().Basis's bits — and those of an
// in-process shard fed the same rows, read in place — and a one-shard
// fabric engine's basis is a one-shard local engine's.
func TestLoopbackBasisIsSnapshotBasis(t *testing.T) {
	const n, d = 96, 20
	scfg := sketch.Config{Ell0: 6, Beta: 1, Seed: 3}
	vecs := testVecs(n, d, 41)

	workers, addrs, err := startLoopbackWorkers(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, w := range workers {
			w.Close()
		}
	}()
	r := fabric.DialRemote("w0", addrs[0], 0, scfg, quietRemote())
	defer r.Close()
	if b, ell := r.Basis(3); b != nil || ell != 0 {
		t.Fatalf("basis before the first row: %v, ell %d", b, ell)
	}
	mirror := engine.NewLocalBackend(scfg)
	for lo := 0; lo < n; lo += 16 {
		if _, err := r.Absorb(obs.SpanContext{}, vecs[lo:lo+16], nil); err != nil {
			t.Fatal(err)
		}
		mirror.Absorb(obs.SpanContext{}, vecs[lo:lo+16], nil) // local backends cannot fail
	}
	fd, err := r.Snapshot(obs.SpanContext{})
	if err != nil || fd == nil {
		t.Fatalf("snapshot: %v, %v", fd, err)
	}
	for _, k := range []int{1, 4, 100} {
		got, ell := r.Basis(k)
		if ell != fd.Ell() {
			t.Fatalf("k=%d: Basis reports ell %d, snapshot %d", k, ell, fd.Ell())
		}
		sameMatrix(t, fmt.Sprintf("Remote.Basis(%d) vs Snapshot().Basis", k), got, fd.Basis(k))
		local, _ := mirror.Basis(k)
		sameMatrix(t, fmt.Sprintf("Remote.Basis(%d) vs in-process shard", k), got, local)
	}

	ecfg := engine.Config{Shards: 1, Sketch: scfg, Window: 16}
	local := engine.New(ecfg)
	defer local.Close()
	remote, _ := newFleetEngine(addrs[1:], ecfg, quietRemote())
	defer remote.Close()
	local.IngestVecs(cloneVecs(vecs), nil)
	remote.IngestVecs(cloneVecs(vecs), nil)
	lw := local.ReadWindow(4, obs.SpanContext{})
	defer lw.Release()
	rw := remote.ReadWindow(4, obs.SpanContext{})
	defer rw.Release()
	if lw.Ell != rw.Ell {
		t.Fatalf("one-shard engine ell: local %d, fabric %d", lw.Ell, rw.Ell)
	}
	sameMatrix(t, "one-shard engine basis", lw.Basis, rw.Basis)
}
