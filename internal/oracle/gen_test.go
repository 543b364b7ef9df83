// Package oracle checks every execution mode of the streaming monitor
// against one model. A seeded generator emits a sequence of steps —
// ingest (bad frames and streams of rank below ℓ included), snapshots,
// checkpoint round trips, hibernations, worker kills, partitions and
// wire corruption — and a driver runs it in serial, sharded, fabric and
// tenant mode, each beside its fault-free local twin. After every step
// the checker holds three invariants: the sketch is bit-exact wherever
// DESIGN.md promises it, the composed certificate bounds the exact
// covariance error of the float64 rows accepted, and the stream count
// and window are the last accepted frames. A failing sequence is shrunk
// and printed with its seed. The package holds only tests.
package oracle

import (
	"fmt"
	"math"
	"strings"

	"arams/internal/rng"
	"arams/internal/sketch"
)

// Frames are fw×fh images; the zero preprocessing chain passes their
// pixels through, so a frame's pixels are the float64 row its shard
// absorbs.
const fw, fh = 4, 4

type kind int

const (
	ingest     kind = iota // one batch: IngestBatch, or IngestVecs when alt
	readers                // batches from one producer while others read, checkpoint and hibernate
	quick                  // QuickSnapshot
	snapshot               // Snapshot
	checkpoint             // State → ckpt bytes → restore; tenant: the registry closes and reopens
	hibernate              // Suspend → restore; tenant: Hibernate, or eviction under the cap when alt
	kill                   // a batch, worker 0 (worker 1 when alt) killed and restarted, a batch
	partition              // a batch, worker 1's link partitioned (slowed when alt), a batch, the link healed
	corrupt                // a batch, worker 1's link flipping bits (cutting frames when alt), a batch, the link healed
)

var kindNames = [...]string{"ingest", "readers", "quick", "snapshot", "checkpoint", "hibernate", "kill", "partition", "corrupt"}

// frame is one detector frame: its pixels and its tag, the stream
// position it was generated at (rejected frames included).
type frame struct {
	pix []float64
	tag int
}

// step is one action of a sequence. A fault step feeds rows[:cut],
// injects its fault, then feeds rows[cut:].
type step struct {
	kind kind
	alt  bool
	rows []frame
	cut  int
}

func (s step) String() string {
	var b strings.Builder
	b.WriteString(kindNames[s.kind])
	if s.alt {
		b.WriteString("/alt")
	}
	if len(s.rows) > 0 {
		b.WriteString(" tags")
		for i, f := range s.rows {
			if i == s.cut && s.cut > 0 {
				b.WriteString(" |")
			}
			fmt.Fprintf(&b, " %d", f.tag)
			for _, x := range f.pix {
				if !finite32(x) {
					fmt.Fprintf(&b, "(%g)", x)
					break
				}
			}
		}
	}
	return b.String()
}

func format(seq []step) string {
	var b strings.Builder
	for i, s := range seq {
		fmt.Fprintf(&b, "  %2d %v\n", i, s)
	}
	return b.String()
}

// finite32 reports whether x has a finite float32 copy: the engine's
// rule for admitting a frame, which the model applies on its own.
func finite32(x float64) bool {
	y := float32(x)
	return y <= math.MaxFloat32 && y >= -math.MaxFloat32
}

// generate draws a sketch configuration and a sequence of 10–19 steps
// from seed. A third of the seeds sketch rank-adaptively from ℓ = 2.
// Half the seeds stream rank-3 rows with no noise — below a fixed ℓ of
// 6, so the certificate is the float32 rounding charge alone —
// and the rest add full-rank noise. Half the noise-free seeds weight
// five directions by the super-exponential σₖ ∝ exp(−(2k)^1.5) instead:
// a Gram spectrum that falls past ε·λ₁ within the rank, the graded
// shape on which the eigensolver once stopped unconverged. One frame in
// eight carries a NaN, ±Inf or ±1e39 pixel. Beta < 1 makes every row
// draw from the sampler's RNG, so a restore that loses its position
// shows in the state bytes.
func generate(seed uint64) (sketch.Config, []step) {
	g := rng.New(seed)
	cfg := sketch.Config{Ell0: 6, Beta: 0.9, Seed: seed}
	if g.Intn(3) == 0 {
		// ℓ starts below the stream's rank and grows while readers run.
		cfg.Ell0, cfg.RankAdaptive, cfg.Eps, cfg.Nu = 2, true, 0.05, 2
	}
	const d = fw * fh
	noise := 0.0
	if g.Intn(2) == 0 {
		noise = 0.3
	}
	sigma := []float64{3, 3, 3}
	if noise == 0 && g.Intn(2) == 0 {
		sigma = make([]float64, 5)
		for k := range sigma {
			sigma[k] = 3 * math.Exp(-math.Pow(2*float64(k), 1.5))
		}
	}
	basis := make([][]float64, len(sigma))
	for i := range basis {
		basis[i] = make([]float64, d)
		for j := range basis[i] {
			basis[i][j] = g.Norm()
		}
	}
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e39, -1e39}
	tag := 0
	frames := func(n int) []frame {
		out := make([]frame, n)
		for i := range out {
			pix := make([]float64, d)
			for k, b := range basis {
				c := sigma[k] * g.Norm()
				for j := range pix {
					pix[j] += c * b[j]
				}
			}
			for j := range pix {
				pix[j] += noise * g.Norm()
			}
			if g.Intn(8) == 0 {
				pix[g.Intn(d)] = bad[g.Intn(len(bad))]
			}
			out[i] = frame{pix: pix, tag: tag}
			tag++
		}
		return out
	}
	// Cumulative weights of the kinds, in kind order.
	weights := [...]int{30, 40, 46, 49, 59, 69, 77, 83, 89}
	seq := make([]step, 10+g.Intn(10))
	for i := range seq {
		k, r := kind(0), g.Intn(weights[len(weights)-1])
		for r >= weights[k] {
			k++
		}
		s := step{kind: k, alt: g.Intn(2) == 0}
		switch k {
		case ingest:
			s.rows = frames(1 + g.Intn(12))
		case readers:
			s.rows = frames(6 + g.Intn(10))
		case kill, partition, corrupt:
			s.rows = frames(2 + g.Intn(12))
			s.cut = 1 + g.Intn(len(s.rows)-1)
		}
		seq[i] = s
	}
	return cfg, seq
}
