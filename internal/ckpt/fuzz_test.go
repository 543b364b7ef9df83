package ckpt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"arams/internal/pipeline"
	"arams/internal/rng"
	"arams/internal/sketch"
)

// pool doles out fuzz bytes as bounded primitives, so arbitrary input
// deterministically shapes a state snapshot.
type pool struct {
	b   []byte
	off int
}

func (p *pool) byte() byte {
	if p.off >= len(p.b) {
		return 0
	}
	v := p.b[p.off]
	p.off++
	return v
}

// intn returns a value in [0, n) driven by one pool byte.
func (p *pool) intn(n int) int { return int(p.byte()) % n }

func (p *pool) f64() float64 {
	var raw [8]byte
	for i := range raw {
		raw[i] = p.byte()
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
}

func (p *pool) floats32(n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		var raw [4]byte
		for j := range raw {
			raw[j] = p.byte()
		}
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[:]))
	}
	return out
}

func (p *pool) u64() uint64 {
	var raw [8]byte
	for i := range raw {
		raw[i] = p.byte()
	}
	return binary.LittleEndian.Uint64(raw[:])
}

func (p *pool) floats(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = p.f64()
	}
	return out
}

func (p *pool) rngState() rng.State {
	return rng.State{
		Hi: p.u64(), Lo: p.u64(),
		IncHi: p.u64(), IncLo: p.u64() | 1,
		HaveGauss: p.byte()&1 == 1, Gauss: p.f64(),
	}
}

func (p *pool) fdState() sketch.FDState {
	ell := 1 + p.intn(6)
	d := 1 + p.intn(8)
	nz := p.intn(2*ell + 1)
	return sketch.FDState{
		Ell: ell, D: d,
		NextZero:   nz,
		Rotations:  p.intn(100),
		Seen:       p.intn(10000),
		TotalDelta: p.f64(),
		Kept:       p.floats(min(nz, ell) * d),
		Incoming:   p.floats32(max(nz-ell, 0) * d),
	}
}

func (p *pool) aramsState() sketch.ARAMSState {
	s := sketch.ARAMSState{
		Cfg: sketch.Config{
			Ell0: 1 + p.intn(6), Nu: 1 + p.intn(8),
			Eps: p.f64(), Beta: p.f64(),
			Seed: p.u64(),
		},
		D:   1 + p.intn(8),
		RNG: p.rngState(),
	}
	s.Cfg.RankAdaptive = p.byte()&1 == 1
	s.FD = p.fdState()
	if s.Cfg.RankAdaptive {
		s.ProbeRNG = p.rngState()
		s.IncreaseEll = p.byte()&1 == 1
		s.RowsLeft = p.intn(1000) - 1
		s.Grows = p.intn(20)
	}
	return s
}

// stateFromBytes deterministically builds one state snapshot of an
// arbitrary kind from raw fuzz input.
func stateFromBytes(data []byte) any {
	p := &pool{b: data}
	switch p.intn(5) {
	case 0:
		s := p.fdState()
		return &s
	case 1, 2:
		s := p.aramsState()
		return &s
	case 3:
		nFrames := p.intn(6)
		frames := make([]pipeline.FrameState, nFrames)
		for i := range frames {
			frames[i] = pipeline.FrameState{Tag: p.intn(1000), Vec: p.floats32(p.intn(6))}
		}
		s := &pipeline.MonitorState{
			Window: 1 + p.intn(64), Ingests: p.intn(10000), Frames: frames,
		}
		// Shard layouts: empty, single, or several slots with holes —
		// nil slots are legal (shards that have not seen a frame yet).
		ns := p.intn(4)
		if ns > 0 {
			s.Shards = make([]*sketch.ARAMSState, ns)
			for i := range s.Shards {
				if p.byte()&1 == 1 {
					ar := p.aramsState()
					s.Shards[i] = &ar
				}
			}
		}
		return s
	default:
		s := p.fdState()
		return sketch.FDState{ // non-pointer variant exercises both Marshal paths
			Ell: s.Ell, D: s.D, NextZero: s.NextZero,
			Rotations: s.Rotations, Seen: s.Seen, TotalDelta: s.TotalDelta,
			Kept: s.Kept, Incoming: s.Incoming,
		}
	}
}

// FuzzCheckpointRoundTrip drives the canonical-encoding invariant:
// for any state the codec can express, encode → decode → re-encode is
// byte-identical.
func FuzzCheckpointRoundTrip(f *testing.F) {
	seedFromTestdata(f, "FuzzCheckpointRoundTrip")
	f.Add([]byte{})
	for k := byte(0); k < 5; k++ {
		f.Add(append([]byte{k}, bytes.Repeat([]byte{0x5a, k, 0xc3}, 64)...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		state := stateFromBytes(data)
		b1, err := Marshal(state)
		if err != nil {
			t.Fatalf("marshal %T: %v", state, err)
		}
		back, err := Unmarshal(b1)
		if err != nil {
			t.Fatalf("unmarshal rejected own encoding of %T: %v", state, err)
		}
		b2, err := Marshal(back)
		if err != nil {
			t.Fatalf("re-marshal %T: %v", back, err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("%T: re-encode differs (%d vs %d bytes)", state, len(b1), len(b2))
		}
	})
}

// FuzzDecodeCorrupt drives the no-panic invariant: arbitrary bytes —
// including bit-flipped real frames from the seed corpus — must decode
// to either a usable state or a clean error, never a panic or an
// unbounded allocation. Each input goes through both decoders, which
// must agree: both refuse it, or both return equal states.
func FuzzDecodeCorrupt(f *testing.F) {
	seedFromTestdata(f, "FuzzDecodeCorrupt")
	f.Add([]byte{})
	f.Add([]byte("ACKP"))
	// The checked-in frames are those of the layout they were generated
	// at (TestGenerateFuzzCorpus); frames of every kind marshalled here
	// keep the field decoders in the fuzzer's reach whatever that was.
	for k := byte(0); k < 5; k++ {
		if valid, err := Marshal(stateFromBytes([]byte{k, 1, 2, 3, 4})); err == nil {
			f.Add(valid)
			flipped := append([]byte(nil), valid...)
			flipped[len(flipped)/2] ^= 0x10
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		state, err, streamed, serr := bothDecoders(data)
		if (err == nil) != (serr == nil) {
			t.Fatalf("decoders disagree: slice %v, stream %v", err, serr)
		}
		if err != nil {
			return // rejected cleanly — that's the contract
		}
		if !reflect.DeepEqual(state, streamed) {
			t.Fatalf("decoders return different %T states", state)
		}
		// Anything accepted must re-encode: decode may not fabricate a
		// state the encoder cannot express.
		if _, err := Marshal(state); err != nil {
			t.Fatalf("decoded state %T does not re-encode: %v", state, err)
		}
	})
}

// seedFromTestdata registers the checked-in corpus explicitly. `go
// test` already reads testdata/fuzz/<name> on its own; doing it here
// too makes a missing corpus a loud failure instead of silent
// coverage loss.
func seedFromTestdata(f *testing.F, name string) {
	f.Helper()
	dir := filepath.Join("testdata", "seed", name)
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatalf("seed corpus missing: %v", err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatalf("reading seed %s: %v", e.Name(), err)
		}
		f.Add(b)
	}
}

// TestGenerateFuzzCorpus regenerates the checked-in seed corpora when
// CKPT_GEN_CORPUS=1 is set; otherwise it only verifies they exist. The
// seeds are raw entropy pools (round-trip target) and real encoded
// frames plus mutations (corrupt target).
func TestGenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("CKPT_GEN_CORPUS") != "1" {
		for _, name := range []string{"FuzzCheckpointRoundTrip", "FuzzDecodeCorrupt"} {
			entries, err := os.ReadDir(filepath.Join("testdata", "seed", name))
			if err != nil || len(entries) == 0 {
				t.Fatalf("seed corpus for %s missing; regenerate with CKPT_GEN_CORPUS=1", name)
			}
		}
		return
	}
	write := func(name, file string, data []byte) {
		dir := filepath.Join("testdata", "seed", name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, file), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	g := rng.New(2024)
	for k := 0; k < 5; k++ {
		entropy := make([]byte, 512)
		entropy[0] = byte(k)
		for i := 1; i < len(entropy); i++ {
			entropy[i] = byte(g.Uint64())
		}
		write("FuzzCheckpointRoundTrip", fmt.Sprintf("kind%d", k), entropy)
		frame, err := Marshal(stateFromBytes(entropy))
		if err != nil {
			t.Fatal(err)
		}
		write("FuzzDecodeCorrupt", fmt.Sprintf("valid%d", k), frame)
		mutated := append([]byte(nil), frame...)
		mutated[int(g.Uint64n(uint64(len(mutated))))] ^= byte(1 << g.Uint64n(8))
		write("FuzzDecodeCorrupt", fmt.Sprintf("flipped%d", k), mutated)
	}
	write("FuzzDecodeCorrupt", "truncated", []byte("ACKP\x01\x00\x00\x00"))
}
