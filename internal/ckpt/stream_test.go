package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"arams/internal/audit"
	"arams/internal/pipeline"
	"arams/internal/rng"
	"arams/internal/sketch"
)

// wideMonitorState builds a monitor state of frames window vectors of
// dimension d around one populated fixed-rank shard, without running a
// stream: the codec only cares about the shape.
func wideMonitorState(frames, d int) *pipeline.MonitorState {
	g := rng.New(uint64(frames)*31 + uint64(d))
	floats := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = g.Norm()
		}
		return v
	}
	floats32 := func(n int) []float32 {
		v := make([]float32, n)
		for i := range v {
			v[i] = float32(g.Norm())
		}
		return v
	}
	const ell = 8
	s := &pipeline.MonitorState{Window: max(frames, 1), Ingests: frames}
	for i := 0; i < frames; i++ {
		s.Frames = append(s.Frames, pipeline.FrameState{Vec: floats32(d), Tag: i})
	}
	if frames > 0 {
		s.Shards = []*sketch.ARAMSState{{
			Cfg: sketch.Config{Ell0: ell, Beta: 0.9, Seed: 3},
			D:   d,
			FD:  &sketch.FDState{Ell: ell, D: d, NextZero: 2 * ell, Seen: frames, Kept: floats(ell * d), Incoming: floats32(ell * d)},
		}}
	}
	return s
}

// stateBytes is the in-memory size of the float payload of s.
func stateBytes(s *pipeline.MonitorState) int {
	n := 0
	for _, f := range s.Frames {
		n += 4 * len(f.Vec)
	}
	for _, sh := range s.Shards {
		n += 8*len(sh.FD.Kept) + 4*len(sh.FD.Incoming)
	}
	return n
}

// codecStates is every state kind plus monitor states whose payloads
// are empty, smaller than the chunk, and many chunks long.
func codecStates(t *testing.T) map[string]any {
	t.Helper()
	out := map[string]any{}
	for i, s := range states(t) {
		out[fmt.Sprintf("state%d", i)] = s // also a file name
	}
	for _, frames := range []int{0, 1, 300} {
		out[fmt.Sprintf("monitor-%dframes", frames)] = wideMonitorState(frames, 1500)
	}
	return out
}

// bothDecoders runs frame through the slice decoder and through the
// streaming decoder over a reader of exactly those bytes.
func bothDecoders(frame []byte) (sliced any, slicedErr error, streamed any, streamedErr error) {
	sliced, slicedErr = Unmarshal(frame)
	streamed, streamedErr = decodeStream(bytes.NewReader(frame), int64(len(frame)))
	return
}

// TestSaveLoadMatchMarshalUnmarshal pins the two forms of the codec to
// each other: the file Save streams out is Marshal's frame byte for
// byte, Encode writes the same, and Load of the file is deeply equal to
// Unmarshal of the bytes.
func TestSaveLoadMatchMarshalUnmarshal(t *testing.T) {
	dir := t.TempDir()
	for name, s := range codecStates(t) {
		want, err := Marshal(s)
		if err != nil {
			t.Fatalf("%s: Marshal: %v", name, err)
		}
		path := filepath.Join(dir, name+".ckpt")
		if err := Save(path, s); err != nil {
			t.Fatalf("%s: Save: %v", name, err)
		}
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(file, want) {
			t.Errorf("%s: Save wrote %d bytes that differ from Marshal's %d", name, len(file), len(want))
		}
		var buf bytes.Buffer
		if _, _, err := encodeFrame(&buf, s); err != nil || !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s: the streamed frame differs from Marshal's (err %v)", name, err)
		}
		fromBytes, err := Unmarshal(want)
		if err != nil {
			t.Fatalf("%s: Unmarshal: %v", name, err)
		}
		fromFile, err := Load(path)
		if err != nil {
			t.Fatalf("%s: Load: %v", name, err)
		}
		if !reflect.DeepEqual(fromFile, fromBytes) {
			t.Errorf("%s: Load and Unmarshal decode different states", name)
		}
	}
}

// failingWriter accepts limit bytes and then fails.
type failingWriter struct{ limit int }

var errDiskFull = errors.New("disk full")

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.limit {
		return 0, errDiskFull
	}
	w.limit -= len(p)
	return len(p), nil
}

// TestEncodeReportsWriteError: a writer that fails on any flush — the
// first chunk, a middle one, the trailer — fails the streaming encode
// Save runs.
func TestEncodeReportsWriteError(t *testing.T) {
	s := wideMonitorState(300, 1500)
	frame, err := Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{0, chunkLen, len(frame) - 1} {
		if _, _, err := encodeFrame(&failingWriter{limit: limit}, s); !errors.Is(err, errDiskFull) {
			t.Errorf("writer failing after %d bytes: got %v, want the write error", limit, err)
		}
	}
}

// fieldBoundaries returns the payload offsets at which a field of the
// monitor frame of s starts, up to the shard list (the few fields
// behind it are covered by the byte-granular cases at the frame's end).
func fieldBoundaries(s *pipeline.MonitorState) []int {
	offs := []int{0, 8, 16, 24} // window, ingests, frame count, first tag
	off := 24
	for _, f := range s.Frames {
		offs = append(offs, off+8, off+16) // vector length prefix, first float
		off += 16 + 4*len(f.Vec)
		offs = append(offs, off, off+8) // next frame's tag (or the shard count), and the field behind it
	}
	return offs
}

// TestCorruptionTableBothDecoders runs one table of damaged frames
// through the slice decoder and the streaming decoder and requires the
// same sentinel from each — in particular the same precedence: a
// flipped payload bit is a checksum error, not whichever field error
// the streaming decoder trips over before it reaches the trailer.
func TestCorruptionTableBothDecoders(t *testing.T) {
	// Three frames of 40 000 floats: the payload spans several chunks,
	// so truncations and flips land both inside and beyond the first.
	s := wideMonitorState(3, 40000)
	valid, err := Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	payloadLen := len(valid) - headerLen - trailerLen
	if payloadLen < 3*chunkLen {
		t.Fatalf("payload of %d bytes does not span three chunks", payloadLen)
	}
	type damaged struct {
		name  string
		frame []byte
		want  error // sentinel, or nil for "a field-level error"
	}
	var cases []damaged
	add := func(name string, frame []byte, want error) {
		cases = append(cases, damaged{name, frame, want})
	}
	flip := func(at int, bit uint) []byte {
		b := append([]byte(nil), valid...)
		b[at] ^= 1 << bit
		return b
	}

	add("empty", nil, ErrTruncated)
	add("header only", valid[:headerLen], ErrTruncated)
	for _, off := range fieldBoundaries(s) {
		// Cut the file at a field boundary: the header's length no longer
		// matches what is there.
		add(fmt.Sprintf("cut at payload offset %d", off), valid[:headerLen+off], ErrTruncated)
	}
	add("cut mid-floats", valid[:headerLen+24+16+4*1234+3], ErrTruncated)
	// The same cuts as well-formed shorter frames — length and checksum
	// agree with what is there — so it is the field decoder that runs
	// out of payload, at the same offset in both forms.
	recut := func(off int) []byte {
		b := append([]byte(nil), valid[:headerLen+off]...)
		binary.LittleEndian.PutUint64(b[12:20], uint64(off))
		return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	}
	for _, off := range append(fieldBoundaries(s), 24+16+4*1234+3, chunkLen+8*77+5, payloadLen-1) {
		add(fmt.Sprintf("payload ends at offset %d", off), recut(off), nil)
	}
	add("cut in the second chunk's floats", valid[:headerLen+chunkLen+8*77+5], ErrTruncated)
	add("cut before the trailer", valid[:len(valid)-trailerLen], ErrTruncated)
	add("cut inside the trailer", valid[:len(valid)-1], ErrTruncated)
	add("trailing bytes", append(append([]byte(nil), valid...), 0, 0, 0), ErrTruncated)

	add("magic bit", flip(1, 3), ErrBadMagic)
	add("version bit", flip(4, 2), ErrVersion)
	add("kind bit", flip(8, 6), ErrChecksum) // checksum first: the header is covered
	add("length bit (low)", flip(12, 0), ErrTruncated)
	add("length bit (high)", flip(19, 7), ErrTruncated)
	for _, delta := range []int{-8, -1, 1, 8, chunkLen} {
		add(fmt.Sprintf("declared length off by %+d from the file", delta), reseal(valid, func(b []byte) {
			binary.LittleEndian.PutUint64(b[12:20], uint64(payloadLen+delta))
		}), ErrTruncated)
	}
	add("payload bit in a count", flip(headerLen+16, 0), ErrChecksum)
	add("payload bit in the first chunk's floats", flip(headerLen+5000, 4), ErrChecksum)
	add("payload bit in a later chunk", flip(headerLen+2*chunkLen+999, 1), ErrChecksum)
	add("payload bit in the last field", flip(len(valid)-trailerLen-1, 0), ErrChecksum)
	add("trailer bit", flip(len(valid)-2, 5), ErrChecksum)

	// Damage under a valid checksum, which only the field decoder can see.
	add("unknown kind", reseal(valid, func(b []byte) { binary.LittleEndian.PutUint32(b[8:12], 42) }), ErrBadKind)
	add("reserved kind 3", reseal(valid, func(b []byte) { binary.LittleEndian.PutUint32(b[8:12], 3) }), ErrBadKind)
	add("older version", reseal(valid, func(b []byte) { b[4] = Version - 1 }), ErrVersion)
	add("vector count beyond the payload", reseal(valid, func(b []byte) {
		binary.LittleEndian.PutUint64(b[headerLen+24+8:], uint64(payloadLen)) // floats, not bytes
	}), nil)
	add("frame count beyond the payload", reseal(valid, func(b []byte) {
		binary.LittleEndian.PutUint64(b[headerLen+16:], 1<<40)
	}), nil)
	add("negative vector count", reseal(valid, func(b []byte) {
		binary.LittleEndian.PutUint64(b[headerLen+24+8:], ^uint64(0))
	}), nil)
	add("frame count short of the payload", reseal(valid, func(b []byte) {
		binary.LittleEndian.PutUint64(b[headerLen+16:], 1) // one frame, two more unread
	}), nil)
	add("invalid bool", reseal(valid, func(b []byte) { b[len(b)-1] = 7 }), nil)

	// Retired values, written by no encoder: a non-zero estimator slot in
	// the shard's ARAMS config (behind the frames, the shard count, the
	// presence bool, Ell0, Nu, Eps, Beta and RankAdaptive) or in a
	// rank-adaptive sketch (behind its FD block, Nu and Eps), and a
	// detector kind other than Page-Hinkley.
	aramsSlot := headerLen + 24 + 8 + 1 + 4*8 + 1
	for _, f := range s.Frames {
		aramsSlot += 16 + 4*len(f.Vec)
	}
	add("ARAMS estimator slot 1", reseal(valid, func(b []byte) { b[aramsSlot] = 1 }), nil)
	ra := sketch.RankAdaptiveState{
		FD: sketch.FDState{Ell: 2, D: 3, NextZero: 1, Kept: []float64{1, 2, 3}},
		Nu: 2, Eps: 0.5, RNG: rng.New(1).State(),
	}
	raFrame, err := Marshal(ra)
	if err != nil {
		t.Fatal(err)
	}
	add("rank-adaptive estimator slot 2", reseal(raFrame, func(b []byte) {
		b[headerLen+7*8+8+8*len(ra.FD.Kept)+8+4*len(ra.FD.Incoming)+2*8] = 2
	}), nil)
	cusum := wideMonitorState(1, 4)
	cusum.Audit = &audit.State{Residual: audit.DetectorState{Kind: "cusum"}, Accept: audit.NewPageHinkley(0.01, 1).State()}
	cusumFrame, err := Marshal(cusum)
	if err != nil {
		t.Fatal(err)
	}
	add("CUSUM detector state", cusumFrame, nil)

	for _, tc := range cases {
		_, slicedErr, _, streamedErr := bothDecoders(tc.frame)
		if slicedErr == nil || streamedErr == nil {
			t.Errorf("%s: accepted (slice: %v, stream: %v)", tc.name, slicedErr, streamedErr)
			continue
		}
		if tc.want != nil {
			if !errors.Is(slicedErr, tc.want) || !errors.Is(streamedErr, tc.want) {
				t.Errorf("%s: slice %v, stream %v; want %v from both", tc.name, slicedErr, streamedErr, tc.want)
			}
			continue
		}
		if slicedErr.Error() != streamedErr.Error() {
			t.Errorf("%s: slice says %q, stream says %q", tc.name, slicedErr, streamedErr)
		}
		for _, sentinel := range []error{ErrBadMagic, ErrVersion, ErrBadKind, ErrChecksum, ErrTruncated} {
			if errors.Is(slicedErr, sentinel) {
				t.Errorf("%s: field damage reported as %v", tc.name, slicedErr)
			}
		}
	}

	// The same frames as files: Load counts each as a failed restore and
	// names the file.
	path := filepath.Join(t.TempDir(), "damaged.ckpt")
	for _, tc := range cases {
		if err := os.WriteFile(path, tc.frame, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Load(path)
		if err == nil || tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("Load, %s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestStreamDecodeShortReader: a source that ends before the size it
// was declared with (a file truncated between Stat and read) is a clean
// error, never a partial state.
func TestStreamDecodeShortReader(t *testing.T) {
	valid, err := Marshal(wideMonitorState(3, 40000))
	if err != nil {
		t.Fatal(err)
	}
	for _, keep := range []int{10, headerLen, headerLen + 100, headerLen + chunkLen + 7, len(valid) - 2} {
		state, err := decodeStream(bytes.NewReader(valid[:keep]), int64(len(valid)))
		if err == nil || state != nil {
			t.Errorf("reader with %d of %d bytes: state %v, err %v", keep, len(valid), state != nil, err)
		}
	}
}

// allocBytes reports the bytes f allocates, after one warm-up call.
func allocBytes(f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSaveLoadAllocCeilings pins what the streaming forms are for: a
// Save holds one chunk, not the frame; a Load holds one chunk besides
// the state it returns. (Marshal + ReadFile + Unmarshal of this state
// allocated the frame twice over on top.)
func TestSaveLoadAllocCeilings(t *testing.T) {
	s := wideMonitorState(512, 4096)
	size := uint64(stateBytes(s))
	path := filepath.Join(t.TempDir(), "wide.ckpt")
	const slack = 1 << 20

	if got := allocBytes(func() {
		if err := Save(path, s); err != nil {
			t.Fatal(err)
		}
	}); got >= slack {
		t.Errorf("Save of a %d-byte state allocates %d B; want under %d", size, got, slack)
	}
	if got := allocBytes(func() {
		if _, err := Load(path); err != nil {
			t.Fatal(err)
		}
	}); got >= size+slack {
		t.Errorf("Load of a %d-byte state allocates %d B; want under state + %d", size, got, slack)
	}
}

// BenchmarkSaveLoad times one checkpoint write and one read of monitor
// states at the benchmark workloads' two shapes (window × d).
func BenchmarkSaveLoad(b *testing.B) {
	for _, shape := range []struct{ frames, d int }{{512, 4096}, {128, 16384}} {
		s := wideMonitorState(shape.frames, shape.d)
		path := filepath.Join(b.TempDir(), "bench.ckpt")
		b.Run(fmt.Sprintf("Save/%dx%d", shape.frames, shape.d), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(stateBytes(s)))
			for i := 0; i < b.N; i++ {
				if err := Save(path, s); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("Load/%dx%d", shape.frames, shape.d), func(b *testing.B) {
			if err := Save(path, s); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetBytes(int64(stateBytes(s)))
			for i := 0; i < b.N; i++ {
				if _, err := Load(path); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
