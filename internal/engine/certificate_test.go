package engine_test

import (
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"arams/internal/audit"
	"arams/internal/engine"
	"arams/internal/imgproc"
	"arams/internal/mat"
	"arams/internal/obs"
	"arams/internal/rng"
	"arams/internal/sketch"
)

// stackedShards stacks every occupied buffer row of every shard of a
// state into one matrix: the sketch Σ BᵢᵀBᵢ that a composed certificate
// describes, with no merge rotation applied.
func stackedShards(st *engine.State) *mat.Matrix {
	var rows [][]float64
	for _, s := range st.Shards {
		if s == nil {
			continue
		}
		fd := &s.FD
		for i := 0; i < len(fd.Kept); i += fd.D {
			rows = append(rows, fd.Kept[i:i+fd.D])
		}
		for i := 0; i < len(fd.Incoming); i += fd.D {
			row := make([]float64, fd.D)
			mat.Widen(row, fd.Incoming[i:i+fd.D])
			rows = append(rows, row)
		}
	}
	return mat.FromRows(rows)
}

// TestComposedCertificateBoundsStackedShards is the ground truth of the
// live certificate on the engine's golden streams (the shapes of
// TestGoldenGlobalSketchDigest) at 1, 2 and 4 shards: the composed
// CovBound bounds the exact ‖AᵀA − Σ BᵢᵀBᵢ‖₂ of the stacked shard
// sketches, its energy ledger is ‖A‖_F², and reading it merged nothing.
func TestComposedCertificateBoundsStackedShards(t *testing.T) {
	for _, tc := range []struct {
		name      string
		n, d, ell int
		seed      uint64
	}{
		{"narrow", 400, 6 * 4, 8, 71},
		{"wide", 240, 64 * 64, 25, 72},
	} {
		vecs := testVecs(tc.n, tc.d, tc.seed)
		a := asMatrix(vecs)
		mass := a.FrobeniusNormSq()
		for _, shards := range []int{1, 2, 4} {
			e := engine.New(engine.Config{
				Shards: shards,
				Sketch: sketch.Config{Ell0: tc.ell, Beta: 1, Seed: 5},
				Window: 32,
			})
			for lo := 0; lo < tc.n; {
				hi := min(tc.n, lo+1+(lo*7)%29)
				e.IngestVecs(cloneVecs(vecs[lo:hi]), nil)
				lo = hi
			}
			cert := e.Certificate()
			if cert.Rows != tc.n {
				t.Fatalf("%s, %d shards: certificate covers %d rows, want %d", tc.name, shards, cert.Rows, tc.n)
			}
			if math.Abs(cert.FrobMass-mass) > 1e-9*(1+mass) {
				t.Fatalf("%s, %d shards: FrobMass %v, want ‖A‖_F² = %v", tc.name, shards, cert.FrobMass, mass)
			}
			exact := sketch.CovErr(a, stackedShards(e.State()))
			if exact > cert.CovBound()+1e-8*(1+mass) {
				t.Fatalf("%s, %d shards: exact error of the stacked shards %v exceeds the composed bound %v",
					tc.name, shards, exact, cert.CovBound())
			}
			if got := e.Reconciles(); got != 0 {
				t.Fatalf("%s, %d shards: %d reconciles, want 0", tc.name, shards, got)
			}
			e.Close()
		}
	}
}

// TestNonFiniteFramesRejected: a frame with a NaN or ±Inf element — or
// one whose float32 copy would hold ±Inf: 1e39 squares to a finite
// float64 but is past float32's range, and 1e200's square overflows the
// energy ledger too — fed through IngestVecs or through the
// preprocessing path, enters neither the window, the sketch nor the
// ingest count; the rest of its batch is ingested with its own tags, the
// frames are counted in arams_engine_frames_rejected_total, and each
// batch is journaled once.
func TestNonFiniteFramesRejected(t *testing.T) {
	const d = 12
	rejected := obs.Default().Counter("arams_engine_frames_rejected_total")
	for _, shards := range []int{1, 2} {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e39, -1e39, 1e200} {
			e := engine.New(engine.Config{
				Shards: shards,
				Sketch: sketch.Config{Ell0: 4, Beta: 1, Seed: 5},
				Window: 16,
			})
			before, seq := rejected.Value(), audit.Default().Seq()
			vecs := testVecs(8, d, 41)
			vecs[2][5], vecs[6][0] = bad, bad
			e.IngestVecs(vecs, []int{10, 11, 12, 13, 14, 15, 16, 17})
			im := imgproc.NewImage(3, 4)
			im.Pix[7] = bad
			e.Ingest(im, 99)

			if got := e.Ingested(); got != 6 {
				t.Fatalf("%d shards, %v: ingested %d frames, want 6", shards, bad, got)
			}
			w := e.ReadWindow(2, obs.SpanContext{})
			if want := []int{10, 11, 13, 14, 15, 17}; !slices.Equal(w.Tags, want) {
				t.Fatalf("%d shards, %v: window tags %v, want %v", shards, bad, w.Tags, want)
			}
			c := e.Certificate()
			if c.Rows != 6 || math.IsNaN(c.ShrinkMass) || math.IsNaN(c.FrobMass) {
				t.Fatalf("%d shards, %v: certificate %+v, want 6 finite rows", shards, bad, c)
			}
			if got := rejected.Value() - before; got != 3 {
				t.Fatalf("%d shards, %v: %v frames counted as rejected, want 3", shards, bad, got)
			}
			events := len(audit.Default().Query(audit.Query{Kind: audit.KindFramesRejected, SinceSeq: seq}))
			if events != 2 {
				t.Fatalf("%d shards, %v: %d frames_rejected events, want one per batch (2)", shards, bad, events)
			}
			e.Close()
		}
	}
}

// certFails is a shard backend whose Certificate always fails, like a
// remote shard whose worker does not answer.
type certFails struct{ engine.Backend }

func (certFails) Certificate() (audit.Certificate, error) {
	return audit.Certificate{}, errors.New("certificate request failed")
}

// TestCertificateOmitsShardThatFails: a shard that cannot answer is left
// out of the composition, so the certificate's Rows fall short of
// Ingested, the miss is journaled as a lost leg, and nothing merges.
func TestCertificateOmitsShardThatFails(t *testing.T) {
	scfg := sketch.Config{Ell0: 4, Beta: 1, Seed: 5}
	ok := engine.NewLocalBackend(engine.ShardSketchConfig(scfg, 0))
	e := engine.New(engine.Config{
		Sketch:   scfg,
		Window:   16,
		Backends: []engine.Backend{ok, certFails{engine.NewLocalBackend(engine.ShardSketchConfig(scfg, 1))}},
	})
	defer e.Close()
	e.IngestVecs(testVecs(20, 8, 43), nil)
	seq := audit.Default().Seq()
	got := e.Certificate()
	want, err := ok.Certificate()
	if err != nil {
		t.Fatal(err)
	}
	got.Time, want.Time = time.Time{}, time.Time{}
	if got != want || got.Rows != 10 {
		t.Fatalf("certificate %+v, want shard 0's alone (10 of %d rows): %+v", got, e.Ingested(), want)
	}
	lost := audit.Default().Query(audit.Query{Kind: audit.KindRemoteLegLost, SinceSeq: seq})
	if len(lost) != 1 || lost[0].Get("leg", -1) != 1 {
		t.Fatalf("journaled %+v, want one remote_leg_lost event for leg 1", lost)
	}
	if got := e.Reconciles(); got != 0 {
		t.Fatalf("%d reconciles, want 0", got)
	}
}

// TestCertificateCoversRoundingOnHardStreams is the sketch package's test
// of the same name through the engine, at 1 and 2 shards, on streams of
// rank 3 — below ℓ, so the certificate is the float32 rounding's charge
// alone: as it is, with rows and columns scaled so that its elements
// span 1e-30…1e30, and scaled into float32's subnormal range with a
// third of its columns below the smallest subnormal. On each the
// composed CovBound is at least the exact ‖AᵀA − Σ BᵢᵀBᵢ‖₂ against the
// float64 rows the engine was fed.
func TestCertificateCoversRoundingOnHardStreams(t *testing.T) {
	const n, d = 160, 48
	g := rng.New(5051)
	lowRank := func() *mat.Matrix { return mat.Mul(mat.RandGaussian(n, 3, g), mat.RandGaussian(3, d, g)) }
	spanning := lowRank()
	for i := 0; i < n; i++ {
		row := spanning.Row(i)
		for j := range row {
			row[j] *= math.Pow(10, float64(i%31-15)) * math.Pow(10, float64(j%31-15))
		}
	}
	subnormal := lowRank()
	for i, v := range subnormal.Data {
		subnormal.Data[i] = v * []float64{1e-40, 1e-46, 1e-42}[i%d%3]
	}
	for name, a := range map[string]*mat.Matrix{"rank_deficient": lowRank(), "span_1e-30_1e30": spanning, "subnormal": subnormal} {
		for _, shards := range []int{1, 2} {
			e := engine.New(engine.Config{
				Shards: shards,
				Sketch: sketch.Config{Ell0: 8, Beta: 1, Seed: 5},
				Window: 16,
			})
			for lo := 0; lo < n; lo += 20 {
				vecs := make([][]float64, 20)
				for i := range vecs {
					vecs[i] = append([]float64(nil), a.Row(lo+i)...)
				}
				e.IngestVecs(vecs, nil)
			}
			cert := e.Certificate()
			if cert.Rows != n {
				t.Fatalf("%s, %d shards: certificate covers %d rows, want %d", name, shards, cert.Rows, n)
			}
			if exact := sketch.CovErr(a, stackedShards(e.State())); !(exact <= cert.CovBound()) {
				t.Errorf("%s, %d shards: exact error of the stacked shards %g exceeds the composed bound %g",
					name, shards, exact, cert.CovBound())
			}
			e.Close()
		}
	}
}
