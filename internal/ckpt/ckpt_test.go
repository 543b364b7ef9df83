package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"arams/internal/audit"
	"arams/internal/imgproc"
	"arams/internal/mat"
	"arams/internal/obs"
	"arams/internal/pipeline"
	"arams/internal/rng"
	"arams/internal/sketch"
)

// testFD builds a sketch with non-trivial state: several rotations, a
// partially filled buffer, and accumulated shrinkage.
func testFD(t *testing.T) *sketch.FrequentDirections {
	t.Helper()
	g := rng.New(7)
	fd := sketch.NewFrequentDirections(6, 12, sketch.Options{})
	for i := 0; i < 40; i++ {
		row := make([]float64, 12)
		for j := range row {
			row[j] = g.Norm()
		}
		fd.Append(row)
	}
	return fd
}

func testARAMS(t *testing.T, rankAdaptive bool) *sketch.ARAMS {
	t.Helper()
	cfg := sketch.Config{Ell0: 5, Nu: 4, Beta: 0.8, Seed: 11}
	if rankAdaptive {
		cfg.RankAdaptive = true
		cfg.Eps = 0.3
	}
	a := sketch.NewARAMS(cfg, 10, 200)
	g := rng.New(3)
	batch := mat.New(60, 10)
	for i := range batch.Data {
		batch.Data[i] = g.Norm()
	}
	a.ProcessBatch(batch)
	return a
}

func testMonitor(t *testing.T, frames int) *pipeline.Monitor {
	t.Helper()
	m := pipeline.NewMonitor(pipeline.Config{
		Sketch: sketch.Config{Ell0: 4, Beta: 0.9, Seed: 5},
	}, 16)
	g := rng.New(9)
	for i := 0; i < frames; i++ {
		im := imgproc.NewImage(4, 4)
		for p := range im.Pix {
			im.Pix[p] = g.Float64()
		}
		m.Ingest(im, i)
	}
	return m
}

// testMonitorAudited is testMonitor with the quality-audit layer
// attached, so its MonitorState carries populated Audit (detector
// internals) and Journal (event ring) sections for the codec to cover.
func testMonitorAudited(t *testing.T, frames int) *pipeline.Monitor {
	t.Helper()
	aud := audit.New(audit.Config{
		Journal:   audit.NewJournal(32),
		Registry:  obs.NewRegistry(),
		Residual:  audit.NewPageHinkley(0.05, 0.5),
		CertEvery: 1,
	})
	m := pipeline.NewMonitor(pipeline.Config{
		Sketch:     sketch.Config{Ell0: 4, Beta: 0.9, Seed: 5},
		Audit:      aud,
		AuditEvery: 4,
	}, 16)
	g := rng.New(9)
	for i := 0; i < frames; i++ {
		im := imgproc.NewImage(4, 4)
		for p := range im.Pix {
			im.Pix[p] = g.Float64()
		}
		m.Ingest(im, i)
	}
	return m
}

// states returns one populated snapshot of every checkpointable kind.
func states(t *testing.T) []any {
	t.Helper()
	fd := testFD(t).State()

	ar := testARAMS(t, true).State()
	arFixed := testARAMS(t, false).State()
	mon := testMonitor(t, 12).State()
	monAudited := testMonitorAudited(t, 12).State()
	if monAudited.Audit == nil || monAudited.Journal == nil || len(monAudited.Journal.Events) == 0 {
		t.Fatal("audited monitor snapshot is missing audit/journal state")
	}
	return []any{&fd, &ar, &arFixed, mon, monAudited}
}

// TestRoundTripCanonical checks the codec invariant the fuzz target
// also drives: encode → decode → re-encode is byte-identical for every
// kind. It also checks Marshal's sizing pass against its writing pass:
// the frame fills the one buffer allocated for it exactly.
func TestRoundTripCanonical(t *testing.T) {
	for _, s := range states(t) {
		b1, err := Marshal(s)
		if err != nil {
			t.Fatalf("marshal %T: %v", s, err)
		}
		if cap(b1) != len(b1) {
			t.Errorf("%T: frame is %d bytes in a %d-byte buffer; Marshal mis-sized or regrew it", s, len(b1), cap(b1))
		}
		back, err := Unmarshal(b1)
		if err != nil {
			t.Fatalf("unmarshal %T: %v", s, err)
		}
		b2, err := Marshal(back)
		if err != nil {
			t.Fatalf("re-marshal %T: %v", back, err)
		}
		if !bytes.Equal(b1, b2) {
			t.Errorf("%T: re-encoded frame differs (%d vs %d bytes)", s, len(b1), len(b2))
		}
	}
}

// TestRestoredFDResumesBitExact appends the same suffix to an original
// sketch and to its checkpoint-restored copy and requires identical
// results — the property that makes crash-restart invisible. The copy
// is rebuilt the way a restore rebuilds a shard: the decoded FD state
// inside an ARAMS state.
func TestRestoredFDResumesBitExact(t *testing.T) {
	fd := testFD(t)
	b, err := Marshal(fd.State())
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	st := back.(*sketch.FDState)
	ar, err := sketch.NewARAMSFromState(sketch.ARAMSState{
		Cfg: sketch.Config{Ell0: st.Ell, Beta: 1}, D: st.D, RNG: rng.New(1).State(), FD: *st,
	})
	if err != nil {
		t.Fatal(err)
	}
	restored := ar.FD()

	g := rng.New(99)
	suffix := make([][]float64, 25)
	for i := range suffix {
		suffix[i] = make([]float64, 12)
		for j := range suffix[i] {
			suffix[i][j] = g.Norm()
		}
	}
	for _, row := range suffix {
		fd.Append(row)
		restored.Append(row)
	}
	a, bM := fd.Sketch(), restored.Sketch()
	for i := range a.Data {
		if a.Data[i] != bM.Data[i] {
			t.Fatalf("restored sketch diverged at element %d: %v vs %v", i, a.Data[i], bM.Data[i])
		}
	}
	if fd.Seen() != restored.Seen() || fd.Rotations() != restored.Rotations() {
		t.Fatalf("counters diverged: seen %d/%d rotations %d/%d",
			fd.Seen(), restored.Seen(), fd.Rotations(), restored.Rotations())
	}
}

// TestRestoredARAMSResumesBitExact does the same through the full
// ARAMS stack (priority sampling + rank adaptation), which also
// exercises the RNG state restore: the sampler draws must line up.
func TestRestoredARAMSResumesBitExact(t *testing.T) {
	a := testARAMS(t, true)
	b, err := Marshal(a.State())
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := sketch.NewARAMSFromState(*back.(*sketch.ARAMSState))
	if err != nil {
		t.Fatal(err)
	}

	g := rng.New(123)
	batch := mat.New(50, 10)
	for i := range batch.Data {
		batch.Data[i] = g.Norm()
	}
	a.ProcessBatch(batch)
	restored.ProcessBatch(batch)
	s1, s2 := a.Sketch(), restored.Sketch()
	if s1.RowsN != s2.RowsN {
		t.Fatalf("sketch shapes diverged: %d vs %d rows", s1.RowsN, s2.RowsN)
	}
	for i := range s1.Data {
		if s1.Data[i] != s2.Data[i] {
			t.Fatalf("restored ARAMS diverged at element %d: %v vs %v", i, s1.Data[i], s2.Data[i])
		}
	}
	if a.Ell() != restored.Ell() {
		t.Fatalf("rank diverged: %d vs %d", a.Ell(), restored.Ell())
	}
}

// TestRestoredGrowingStreamAtEveryBatch: a rank-adaptive stream whose ℓ
// grows several times, checkpointed through Marshal and Unmarshal after
// every batch — some boundaries with a growth pending — and restored,
// by copy and by adoption, ends in the state of the run that never
// stopped, byte for byte, with and without the sampler. At each boundary
// a frame whose rank-adaptive ν or ε is not its config's is refused: the
// config is the one place a restore reads them from.
func TestRestoredGrowingStreamAtEveryBatch(t *testing.T) {
	const n, d, batch = 240, 8, 9
	x := mat.New(n, d)
	g := rng.New(31)
	for i := range x.Data {
		x.Data[i] = g.Norm()
	}
	stream := func(a *sketch.ARAMS, boundary func(a *sketch.ARAMS) *sketch.ARAMS) []byte {
		for lo := 0; lo < n; lo += batch {
			a.ProcessBatch(x.Rows(lo, min(lo+batch, n)))
			a = boundary(a)
		}
		frame, err := Marshal(a.State())
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}
	for _, beta := range []float64{1, 0.8} {
		cfg := sketch.Config{Ell0: 3, Nu: 2, Eps: 0.02, Beta: beta, RankAdaptive: true, Seed: 17}
		var grows int
		want := stream(sketch.NewARAMS(cfg, d, n), func(a *sketch.ARAMS) *sketch.ARAMS {
			grows = a.State().Grows
			return a
		})
		if grows < 2 {
			t.Fatalf("β=%v: the stream grew ℓ %d times; want at least 2", beta, grows)
		}
		for name, restore := range map[string]func(*sketch.ARAMS) (*sketch.ARAMS, error){
			"copy":  func(a *sketch.ARAMS) (*sketch.ARAMS, error) { return resume(t, a.State(), sketch.NewARAMSFromState) },
			"adopt": func(a *sketch.ARAMS) (*sketch.ARAMS, error) { return resume(t, a.TakeState(), sketch.AdoptARAMSState) },
		} {
			pending := 0
			got := stream(sketch.NewARAMS(cfg, d, n), func(a *sketch.ARAMS) *sketch.ARAMS {
				if a.State().IncreaseEll {
					pending++
				}
				b, err := restore(a)
				if err != nil {
					t.Fatalf("β=%v, %s: %v", beta, name, err)
				}
				return b
			})
			if pending == 0 {
				t.Errorf("β=%v, %s: no batch boundary left a growth pending", beta, name)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("β=%v, %s: checkpointed after every batch, the stream ends in another state than the uninterrupted run", beta, name)
			}
		}
	}
}

// resume checkpoints st through Marshal and Unmarshal and restores the
// decoded state with restore, after checking that the frame with its
// rank-adaptive ν or ε changed fails to decode.
func resume(t *testing.T, st sketch.ARAMSState, restore func(sketch.ARAMSState) (*sketch.ARAMS, error)) (*sketch.ARAMS, error) {
	t.Helper()
	frame, err := Marshal(st)
	if err != nil {
		return nil, err
	}
	at := rankAdaptiveBlock(&st.FD)
	for field, edit := range map[string]func(b []byte){
		"ν": func(b []byte) { b[at]++ },
		"ε": func(b []byte) { b[at+8] ^= 1 },
	} {
		if _, err := Unmarshal(reseal(frame, edit)); err == nil {
			t.Fatalf("a frame whose rank-adaptive %s is not its config's decodes", field)
		}
	}
	back, err := Unmarshal(frame)
	if err != nil {
		return nil, err
	}
	return restore(*back.(*sketch.ARAMSState))
}

// reseal returns a copy of frame with edit applied to everything ahead
// of the trailer and the checksum recomputed, so the edit is the only
// thing a decoder can object to.
func reseal(frame []byte, edit func(b []byte)) []byte {
	b := append([]byte(nil), frame...)
	body := b[:len(b)-trailerLen]
	edit(body)
	binary.LittleEndian.PutUint32(b[len(body):], crc32.ChecksumIEEE(body))
	return b
}

func TestDecodeErrors(t *testing.T) {
	valid, err := Marshal(testFD(t).State())
	if err != nil {
		t.Fatal(err)
	}

	t.Run("empty", func(t *testing.T) {
		if _, err := Unmarshal(nil); !errors.Is(err, ErrTruncated) {
			t.Errorf("got %v, want ErrTruncated", err)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		b := append([]byte(nil), valid...)
		b[0] ^= 0xff
		if _, err := Unmarshal(b); !errors.Is(err, ErrBadMagic) {
			t.Errorf("got %v, want ErrBadMagic", err)
		}
	})
	// Resealed, so only the version stands between the frame and a
	// decode: newer and older layouts are both refused, and so is the
	// monitor kind's version on a sketch frame.
	for name, ver := range map[string]byte{"future version": 99, "previous version": sketchVersion - 1, "monitor version": Version, "version 1": 1, "version 0": 0} {
		t.Run(name, func(t *testing.T) {
			b := reseal(valid, func(b []byte) { b[4] = ver })
			if _, err := Unmarshal(b); !errors.Is(err, ErrVersion) {
				t.Errorf("got %v, want ErrVersion", err)
			}
			if _, err := Peek(b); !errors.Is(err, ErrVersion) {
				t.Errorf("Peek: got %v, want ErrVersion", err)
			}
		})
	}
	t.Run("payload flip", func(t *testing.T) {
		b := append([]byte(nil), valid...)
		b[len(b)/2] ^= 0x40
		if _, err := Unmarshal(b); !errors.Is(err, ErrChecksum) {
			t.Errorf("got %v, want ErrChecksum", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if _, err := Unmarshal(valid[:len(valid)-3]); !errors.Is(err, ErrTruncated) {
			t.Errorf("got %v, want ErrTruncated", err)
		}
	})
	t.Run("unknown kind", func(t *testing.T) {
		// Rebuild the frame with a bogus kind so the checksum is valid.
		bad := reseal(valid, func(b []byte) { binary.LittleEndian.PutUint32(b[8:12], 42) })
		if _, err := Unmarshal(bad); !errors.Is(err, ErrBadKind) {
			t.Errorf("got %v, want ErrBadKind", err)
		}
	})
}

// TestMonitorVersion3Rejected: a monitor checkpoint in the version 3
// layout — window frames as float64 — fails every decoder and Peek with
// ErrVersion, at the header, rather than being narrowed into a version 4
// state whose encoding would not be the file's bytes.
func TestMonitorVersion3Rejected(t *testing.T) {
	// The version 3 layout by hand: window, ingests, two frames of tag and
	// float64 vector, no shard, no audit state, no journal.
	payload := &enc{b: make([]byte, 0, 256)}
	payload.i64(4)
	payload.i64(2)
	payload.i64(2)
	for tag, vec := range [][]float64{{0.5, -1, 2}, {3, 0.25, -4}} {
		payload.i64(tag)
		payload.floats(vec)
	}
	payload.i64(0)
	payload.bool(false)
	payload.bool(false)
	frame := binary.LittleEndian.AppendUint32(nil, Magic)
	frame = binary.LittleEndian.AppendUint32(frame, 3)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(KindMonitor))
	frame = binary.LittleEndian.AppendUint64(frame, uint64(len(payload.b)))
	frame = append(frame, payload.b...)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(frame))
	path := filepath.Join(t.TempDir(), "v3.ckpt")
	if err := os.WriteFile(path, frame, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Peek(frame); !errors.Is(err, ErrVersion) {
		t.Errorf("Peek: got %v, want ErrVersion", err)
	}
	if _, err := Unmarshal(frame); !errors.Is(err, ErrVersion) {
		t.Errorf("Unmarshal: got %v, want ErrVersion", err)
	}
	if _, err := Load(path); !errors.Is(err, ErrVersion) {
		t.Errorf("Load: got %v, want ErrVersion", err)
	}
	// The same payload under the current version is no monitor frame
	// either: its vectors are read as float32, and the layout falls apart.
	cur := reseal(frame, func(b []byte) { b[4] = Version })
	if _, err := Unmarshal(cur); err == nil || errors.Is(err, ErrVersion) {
		t.Errorf("v3 payload under a v%d header: got %v, want a field error", Version, err)
	}
}

// TestMonitorVersion4Rejected: a version 4 monitor frame — float32
// window, version 3 sketch payloads with all-float64 buffers — fails
// with ErrVersion from every decoder, like a version 3 one, rather than
// be read with the float32 incoming rows its sketches do not have.
func TestMonitorVersion4Rejected(t *testing.T) {
	valid, err := Marshal(testMonitor(t, 10).State())
	if err != nil {
		t.Fatal(err)
	}
	v4 := reseal(valid, func(b []byte) { b[4] = 4 })
	path := filepath.Join(t.TempDir(), "v4.ckpt")
	if err := os.WriteFile(path, v4, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Peek(v4); !errors.Is(err, ErrVersion) {
		t.Errorf("Peek: got %v, want ErrVersion", err)
	}
	if _, err := Unmarshal(v4); !errors.Is(err, ErrVersion) {
		t.Errorf("Unmarshal: got %v, want ErrVersion", err)
	}
	if _, err := Load(path); !errors.Is(err, ErrVersion) {
		t.Errorf("Load: got %v, want ErrVersion", err)
	}
}

func TestSaveLoadAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sketch.ckpt")
	fd := testFD(t)
	if err := Save(path, fd.State()); err != nil {
		t.Fatal(err)
	}
	// Overwrite with a second checkpoint; the rename must replace, and
	// no temp files may linger.
	fdRow := make([]float64, 12)
	fdRow[0] = 1
	fd.Append(fdRow)
	if err := Save(path, fd.State()); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("expected only the checkpoint in %s, found %d entries", dir, len(entries))
	}

	state, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := state.(*sketch.FDState)
	if !ok {
		t.Fatalf("loaded %T, want *sketch.FDState", state)
	}
	if got.Seen != fd.Seen() {
		t.Fatalf("loaded Seen=%d, want %d", got.Seen, fd.Seen())
	}
}

func TestLoadRejectsCorruptFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sketch.ckpt")
	if err := Save(path, testFD(t).State()); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[headerLen+5] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); !errors.Is(err, ErrChecksum) {
		t.Fatalf("got %v, want ErrChecksum", err)
	}
}

func TestMonitorStateRoundTrip(t *testing.T) {
	m := testMonitor(t, 10)
	b, err := Marshal(m.State())
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	ms := back.(*pipeline.MonitorState)
	restored, err := pipeline.NewMonitorFromState(pipeline.Config{
		Sketch: sketch.Config{Ell0: 4, Beta: 0.9, Seed: 5},
	}, ms)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Ingested() != m.Ingested() || restored.Ell() != m.Ell() {
		t.Fatalf("restored monitor state mismatch: ingests %d/%d ell %d/%d",
			restored.Ingested(), m.Ingested(), restored.Ell(), m.Ell())
	}
}

func TestPeek(t *testing.T) {
	b, err := Marshal(testFD(t).State())
	if err != nil {
		t.Fatal(err)
	}
	h, err := Peek(b)
	if err != nil {
		t.Fatal(err)
	}
	if h.Kind != KindFD || h.Version != sketchVersion || !h.ChecksumOK {
		t.Fatalf("unexpected header %+v", h)
	}
	if h.PayloadLen != uint64(len(b)-headerLen-trailerLen) {
		t.Fatalf("payload length %d != %d", h.PayloadLen, len(b)-headerLen-trailerLen)
	}
}
