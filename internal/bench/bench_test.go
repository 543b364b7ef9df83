package bench

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"arams/internal/synth"
)

func fmtSscan(s string, v *float64) (int, error) { return fmt.Sscan(s, v) }

// tinyFig1 keeps experiment smoke tests fast.
func tinyFig1() Fig1Params {
	return Fig1Params{
		N: 300, D: 80, Rank: 40,
		EllSweep: []int{5, 10, 20},
		EpsSweep: []float64{0.3, 0.1, 0.03},
		Nu:       5,
		Beta:     0.8,
		Seed:     1,
	}
}

func tinyScaling() ScalingParams {
	return ScalingParams{N: 128, D: 256, Rank: 16, Ell: 12, Cores: []int{1, 2, 4}, Seed: 2}
}

func TestTableFormatting(t *testing.T) {
	tb := &Table{Title: "t", Note: "n", Header: []string{"a", "b"}}
	tb.Append(1, 2.5)
	tb.Append("x", 1e-7)
	var buf bytes.Buffer
	tb.Print(&buf)
	out := buf.String()
	for _, want := range []string{"== t ==", "a", "2.5000", "1.000e-07"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	buf.Reset()
	tb.CSV(&buf)
	if !strings.HasPrefix(buf.String(), "a,b\n") {
		t.Fatalf("CSV header wrong: %q", buf.String())
	}
}

func TestFig1SingularValues(t *testing.T) {
	tb := Fig1SingularValues(tinyFig1())
	if len(tb.Rows) == 0 {
		t.Fatal("no rows")
	}
	// Column order: sub > exp > super at the tail row.
	last := tb.Rows[len(tb.Rows)-1]
	sub, exp, sup := parseF(t, last[1]), parseF(t, last[2]), parseF(t, last[3])
	if !(sup < exp && exp < sub) {
		t.Fatalf("tail ordering wrong: %v", last)
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	var v float64
	if _, err := fmtSscan(s, &v); err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestFig1ErrorRuntime(t *testing.T) {
	tables := Fig1ErrorRuntime(tinyFig1())
	if len(tables) != 3 {
		t.Fatalf("want 3 decay tables, got %d", len(tables))
	}
	// The rank-adaptive rows' final ℓ at ε = 0.3, 0.1, 0.03, panel by
	// panel (sub-, exponential, super-exponential decay), with and
	// without sampling: exact counts, pinned exactly (DESIGN.md, "Fig. 1
	// and Fig. 2 counts"). A moved count means the probe stream changed.
	wantEll := [][]float64{{10, 15, 25}, {10, 10, 10}, {10, 10, 10}}
	for i, tb := range tables {
		// 4 variants × 3 sweep points.
		if len(tb.Rows) != 12 {
			t.Fatalf("%s: %d rows", tb.Title, len(tb.Rows))
		}
		for _, variant := range []string{"RA-FD (user error)", "PS+RA-FD (user error)"} {
			var ells []float64
			for _, r := range tb.Rows {
				if r[0] == variant {
					ells = append(ells, parseF(t, r[2]))
				}
			}
			if !slices.Equal(ells, wantEll[i]) {
				t.Errorf("%s, %s: ell_final %v, want %v", tb.Title, variant, ells, wantEll[i])
			}
		}
		// Within the fixed-rank FD variant, error must fall as ℓ grows.
		var errs []float64
		for _, r := range tb.Rows {
			if r[0] == "FD (user rank)" {
				errs = append(errs, parseF(t, r[4]))
			}
		}
		for i := 1; i < len(errs); i++ {
			if errs[i] > errs[i-1]*1.3+1e-12 {
				t.Fatalf("%s: FD error not decreasing with ℓ: %v", tb.Title, errs)
			}
		}
	}
}

func TestFig2Scaling(t *testing.T) {
	tb := Fig2Scaling(tinyScaling())
	if len(tb.Rows) != 6 { // 3 core counts × 2 strategies
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// merge_rounds and merge_rotations per core count, pinned exactly
	// (DESIGN.md, "Fig. 1 and Fig. 2 counts"): both strategies rotate
	// once a merge, c−1 times; the tree takes ⌈log₂ c⌉ rounds to the
	// serial fold's c−1.
	want := map[string][2]float64{
		"1/tree-merge": {0, 0}, "2/tree-merge": {1, 1}, "4/tree-merge": {2, 3},
		"1/serial-merge": {0, 0}, "2/serial-merge": {1, 1}, "4/serial-merge": {3, 3},
	}
	for _, r := range tb.Rows {
		key := r[0] + "/" + r[1]
		got := [2]float64{parseF(t, r[6]), parseF(t, r[7])}
		if got != want[key] {
			t.Errorf("%s cores: merge_rounds/merge_rotations %v, want %v", key, got, want[key])
		}
	}
}

func TestFig3Error(t *testing.T) {
	tb := Fig3Error(tinyScaling())
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, r := range tb.Rows {
		ratio := parseF(t, r[3])
		if ratio < 0.2 || ratio > 5 {
			t.Fatalf("tree/serial error ratio %v far from 1 (cores=%s)", ratio, r[0])
		}
	}
}

func TestProbeSweep(t *testing.T) {
	tb := ProbeSweep(3)
	if len(tb.Rows) != 7 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	first := parseF(t, tb.Rows[0][1])
	last := parseF(t, tb.Rows[len(tb.Rows)-1][1])
	if last >= first {
		t.Fatalf("estimator deviation did not fall with nu: %v → %v", first, last)
	}
}

func TestBetaSweep(t *testing.T) {
	tb := BetaSweep(tinyFig1())
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}

// TestFig5AndFig6Smoke runs both figures at one of the quality file's
// thirty seeds (aramsbench -seed 1) and holds each clusterer's purity to
// the file's floor for it: the lower fence q1 − 1.5·(q3 − q1) of the
// thirty-seed distribution.
func TestFig5AndFig6Smoke(t *testing.T) {
	q := loadQuality(t)
	p := DefaultEmbed()
	p.Seed = 1 + 2
	tables := Fig5BeamProfile(p)
	if len(tables) != 2 {
		t.Fatalf("Fig5 tables = %d", len(tables))
	}
	if len(tables[0].Rows) != 3 || len(tables[1].Rows) != 1 {
		t.Fatal("Fig5 table shapes wrong")
	}
	t6 := Fig6Diffraction(p)
	if len(t6.Rows) != 2 {
		t.Fatal("Fig6 rows wrong: want one per clusterer")
	}
	for _, r := range t6.Rows {
		st := q.stat(t, "fig6."+r[0]+".purity")
		if floor, purity := st.Q1-1.5*(st.Q3-st.Q1), parseF(t, r[4]); purity < floor {
			t.Fatalf("smoke-test %s purity %v below the quality file's floor %v", r[0], purity, floor)
		}
	}
}

func TestRuntimeStudySmoke(t *testing.T) {
	p := RuntimeParams{Frames: 120, ImgSize: 32, CropSize: 24, Workers: []int{1, 2}, Seed: 6}
	tb := RuntimeStudy(p)
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, r := range tb.Rows {
		if hz := parseF(t, r[2]); hz <= 0 {
			t.Fatalf("non-positive throughput %v", hz)
		}
	}
}

func TestScalingDataShards(t *testing.T) {
	p := tinyScaling()
	shards := scalingData(p, 4)
	if len(shards) != 4 {
		t.Fatalf("shards = %d", len(shards))
	}
	full := synth.Concat(shards)
	if full.RowsN != 128 {
		t.Fatalf("concat rows = %d", full.RowsN)
	}
}
