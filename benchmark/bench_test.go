package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestQuantile(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		q    float64
		want float64
	}{
		{"one sample is its own quartile", []float64{7}, 0.25, 7},
		{"two samples interpolate", []float64{4, 0}, 0.25, 1},
		{"three samples", []float64{3, 1, 2}, 0.25, 1.5},
		{"four samples", []float64{4, 3, 2, 1}, 0.25, 1.75},
		{"ties stay on the tied value", []float64{5, 5, 5, 9, 9}, 0.25, 5},
		{"ties across the cut", []float64{1, 2, 2, 2, 8}, 0.5, 2},
		{"maximum", []float64{1, 2, 3}, 1, 3},
		{"minimum", []float64{3, 2, 1}, 0, 1},
	}
	for _, c := range cases {
		if got := quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: quantile(%v, %v) = %v, want %v", c.name, c.xs, c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.25)) {
		t.Error("quantile of no samples should be NaN")
	}
	in := []float64{3, 1, 2}
	quantile(in, 0.5)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("quantile reordered its input: %v", in)
	}
	// Second-fastest of seven is the set-up statistic.
	if got := secondFastest([]float64{9, 2, 8, 1, 7, 6, 5}); got != 2 {
		t.Errorf("secondFastest = %v, want 2", got)
	}
}

// TestSetupSchedule: the set-ups after the first four come a quarter of
// the run apart.
func TestSetupSchedule(t *testing.T) {
	var at []int
	for c, done := 0, setupBefore; c < 30; c++ {
		if setupDue(done, c, 30) {
			done++
			at = append(at, c)
		}
	}
	if len(at) != 3 || at[0] != 6 || at[1] != 13 || at[2] != 20 {
		t.Errorf("30 cycles: set-ups after cycles %v, want [6 13 20]", at)
	}
	if setupDue(setupRuns, 6, 30) {
		t.Error("an eighth set-up is due")
	}
}

func TestSelfTimes(t *testing.T) {
	// root [0,100] with children [10,30], [20,50] (overlapping: cover 40)
	// and [60,70]; the second child has a grandchild [25,45]; a span
	// outside any parent; a child that overruns its parent's end.
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},
		{ID: 4, Parent: 1, Start: 60, End: 70},
		{ID: 5, Parent: 3, Start: 25, End: 45},
		{ID: 6, Parent: 0, Start: 200, End: 230},
		{ID: 7, Parent: 6, Start: 220, End: 260},
	}
	want := map[int]int64{1: 50, 2: 20, 3: 10, 4: 10, 5: 20, 6: 20, 7: 40}
	got := selfTimes(spans)
	for id, w := range want {
		if int64(got[id]) != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

func TestRecorderParentsAndNil(t *testing.T) {
	var none *recorder
	none.begin("x") // a nil recorder is the untraced pass: every call is a no-op
	none.end()
	none.setCycle(3)
	if len(none.durations("x")) != 0 {
		t.Error("nil recorder returned samples")
	}

	r := newRecorder(8)
	r.setCycle(0)
	r.begin("cycle")
	r.begin("ingest")
	r.end()
	r.begin("snapshot")
	r.end()
	r.end()
	r.setCycle(-1)
	r.begin("outside")
	r.end()
	if len(r.spans) != 4 {
		t.Fatalf("recorded %d spans, want 4", len(r.spans))
	}
	if r.spans[1].Parent != r.spans[0].ID || r.spans[2].Parent != r.spans[0].ID || r.spans[0].Parent != 0 {
		t.Errorf("wrong parents: %+v", r.spans)
	}
	if n := len(r.durations("outside")); n != 0 {
		t.Errorf("a span outside the measured cycles counted as a sample (%d)", n)
	}
	if n := len(r.selfDurations("cycle")); n != 1 {
		t.Errorf("selfDurations(cycle) has %d samples, want 1", n)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := r.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(b), "\n"); lines != 4 {
		t.Errorf("trace file has %d lines, want 4", lines)
	}
}

// fixture writes a result file with the given per-run values of one
// metric on beam_serial.
func fixture(t *testing.T, name, metricName string, vals []float64, failed int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	for _, v := range vals {
		res := &result{Workload: "beam_serial", Ops: 100, OpsFailed: failed,
			Metrics: map[string]value{metricName: {Value: v, Unit: unitOf(metricName)}}}
		if err := appendResult(path, res); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

func TestCompareVerdicts(t *testing.T) {
	// Fixtures are sized from each metric's bound b: "steady" runs spread
	// about 1 %, a "shift" moves the median by 1.6·b, "noisy" runs have a
	// quartile spread of about 1.5·b.
	steady := func(c float64) []float64 { return []float64{c, c * 1.01, c * 0.99, c, c * 1.02} }
	noisy := func(c, b float64) []float64 {
		return []float64{c * (1 - 1.5*b), c, c * (1 + 1.5*b), c * (1 - 0.75*b), c * (1 + 0.75*b)}
	}
	cases := []struct {
		name     string
		metric   string
		old, new func(b float64) []float64
		verdict  string
		exit     int
	}{
		{"same", "snapshot_ms", func(float64) []float64 { return steady(100) }, func(float64) []float64 { return steady(101) }, verdictSame, 0},
		{"slower beyond the bound", "snapshot_ms", func(float64) []float64 { return steady(100) },
			func(b float64) []float64 { return steady(100 * (1 + 1.6*b)) }, verdictWorse, 1},
		{"faster beyond the bound", "snapshot_ms", func(float64) []float64 { return steady(100) },
			func(b float64) []float64 { return steady(100 * (1 - 1.6*b)) }, verdictBetter, 0},
		{"higher is better: fewer frames/s is worse", "frames_per_s", func(float64) []float64 { return steady(100) },
			func(b float64) []float64 { return steady(100 * (1 - 1.6*b)) }, verdictWorse, 1},
		{"higher is better: more frames/s is better", "frames_per_s", func(float64) []float64 { return steady(100) },
			func(b float64) []float64 { return steady(100 * (1 + 1.6*b)) }, verdictBetter, 0},
		{"noisy and overlapping", "snapshot_ms", func(b float64) []float64 { return noisy(100, b) },
			func(b float64) []float64 { return noisy(100*(1+1.6*b), b) }, verdictUnresolved, 0},
		{"noisy but every new run is slower than every old run", "snapshot_ms", func(b float64) []float64 { return noisy(100, b) },
			func(b float64) []float64 { return noisy(400, b) }, verdictWorse, 1},
		{"tight bound on a count", "alloc_bytes_per_frame", func(float64) []float64 { return steady(100) },
			func(b float64) []float64 { return steady(100 * (1 + 1.6*b)) }, verdictWorse, 1},
	}
	for _, c := range cases {
		var m metric
		for _, e := range endToEnd {
			if e.Name == c.metric {
				m = e
			}
		}
		olds, news := c.old(m.Bound), c.new(m.Bound)
		verdict, _ := judge(m, newSide(olds), newSide(news))
		if verdict != c.verdict {
			t.Errorf("%s: verdict %q, want %q", c.name, verdict, c.verdict)
		}
		var out bytes.Buffer
		exit := runCompare(fixture(t, "old.jsonl", c.metric, olds, 0), fixture(t, "new.jsonl", c.metric, news, 0), &out)
		if exit != c.exit {
			t.Errorf("%s: exit %d, want %d\n%s", c.name, exit, c.exit, out.String())
		}
		if !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: output lacks the verdict %q:\n%s", c.name, c.verdict, out.String())
		}
	}

	// A larger share of failed operations fails the comparison on its own.
	var out bytes.Buffer
	if exit := runCompare(fixture(t, "old.jsonl", "snapshot_ms", steady(100), 0), fixture(t, "new.jsonl", "snapshot_ms", steady(100), 1), &out); exit != 1 {
		t.Errorf("more failed operations: exit %d, want 1\n%s", exit, out.String())
	}
}

func TestGuardDiff(t *testing.T) {
	w, _ := findWorkload("beam_serial")
	base := map[string]value{
		"cov_err_rel": {Value: 0.006}, "sketch.rotations": {Value: 1229}, "engine.reconciles": {Value: 0},
		"ckpt.bytes": {Value: 9454963}, "tenant.hibernations": {Value: 0}, "alloc_bytes_per_frame": {Value: 219000},
	}
	clone := func(change func(map[string]value)) map[string]value {
		m := map[string]value{}
		for k, v := range base {
			m[k] = v
		}
		change(m)
		return m
	}
	if bad := guardDiff(w, base, clone(func(m map[string]value) { m["alloc_bytes_per_frame"] = value{Value: 219500} })); len(bad) != 0 {
		t.Errorf("0.2%% allocation difference flagged: %v", bad)
	}
	bad := guardDiff(w, base, clone(func(m map[string]value) { m["engine.reconciles"] = value{Value: 1} }))
	if len(bad) != 1 || !strings.Contains(bad[0], "engine.reconciles") {
		t.Errorf("reconcile mismatch not named: %v", bad)
	}
	bad = guardDiff(w, base, clone(func(m map[string]value) { m["alloc_bytes_per_frame"] = value{Value: 225000} }))
	if len(bad) != 1 || !strings.Contains(bad[0], "alloc_bytes_per_frame") {
		t.Errorf("2.7%% allocation difference not named: %v", bad)
	}
}

// TestManifestMatchesCommittedFile fails when BENCHMARK.json and the
// workload and metric tables disagree: regenerate it with
// `bash benchmark/run.sh -manifest > BENCHMARK.json`.
func TestManifestMatchesCommittedFile(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, manifestJSON()) {
		t.Errorf("BENCHMARK.json differs from the tables; regenerate it with -manifest.\ncommitted:\n%s\ngenerated:\n%s", committed, manifestJSON())
	}
}

// TestManifestWithinContract checks the limits the driver enforces
// before a single run.
func TestManifestWithinContract(t *testing.T) {
	m := buildManifest()
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range m.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") || w.Why == "" {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	setup := false
	for _, e := range m.EndToEnd {
		name(e.Name)
		if !unitRE.MatchString(e.Unit) || (e.Better != lower && e.Better != higher) || e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is outside the contract", e)
		}
		if e.Name == "setup_s" {
			setup = e.Unit == "s" && e.Better == lower
		}
	}
	if !setup {
		t.Error("setup_s (unit s, lower is better) is missing")
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, p := range m.PerLayer {
		name(p.Name)
		if !unitRE.MatchString(p.Unit) || (p.Better != lower && p.Better != higher) {
			t.Errorf("per-layer metric %+v is outside the contract", p)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d", m.RunSeconds)
	}
	if len(manifestJSON()) > 64<<10 {
		t.Error("BENCHMARK.json is over 64 KiB")
	}
	for _, w := range workloads {
		if w.Cycles(m.RunSeconds) != w.NominalCycles || w.NominalCycles < minSamples {
			t.Errorf("%s: %d cycles at run_seconds, want the nominal %d >= %d", w.Name, w.Cycles(m.RunSeconds), w.NominalCycles, minSamples)
		}
		if w.Cycles(1) < minSamples {
			t.Errorf("%s: a short run would report timings from fewer than %d samples", w.Name, minSamples)
		}
		if need := sketchEll*w.Shards + w.ReplayFrames; need > w.S {
			t.Errorf("%s: the replay needs %d frames of a %d-frame cycle", w.Name, need, w.S)
		}
	}
}

// TestWorkloadSmoke runs two cycles of every workload, both passes, on
// frames shrunk to 16×16, windows and warm-up to 64 frames and cycles to
// 128 so it fits a unit-test budget, and checks that
// every metric the pass reports appears with a finite value, that the
// contract line carries exactly the ones BENCHMARK.json declares for the
// pass, and that no operation failed.
func TestWorkloadSmoke(t *testing.T) {
	for _, w := range workloads {
		w.Size, w.Window, w.Warmup, w.S = 16, 64, 64, 128
		for _, trace := range []bool{false, true} {
			res, err := runOne(w, defaultSeed, 2, trace, t.TempDir(), t.TempDir())
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if res.OpsFailed != 0 {
				t.Errorf("%s trace=%v: %d failed operations: %v", w.Name, trace, res.OpsFailed, res.Failures)
			}
			for _, m := range reported(trace) {
				v, ok := res.Metrics[m.Name]
				if !ok || !finite(v.Value) {
					t.Errorf("%s trace=%v: metric %s missing or not finite (%v)", w.Name, trace, m.Name, v.Value)
				}
				if v.Unit != m.Unit {
					t.Errorf("%s: metric %s has unit %q, declared %q", w.Name, m.Name, v.Unit, m.Unit)
				}
			}
			if !trace {
				for _, m := range endToEnd {
					if res.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, m.Name, res.Metrics[m.Name].Value)
					}
				}
			} else if len(res.Ledger) < 2 {
				t.Errorf("%s: traced pass printed %d ledger lines, want the two sums", w.Name, len(res.Ledger))
			}

			// The contract line: exactly four keys, exactly the pass's metrics.
			f, err := os.CreateTemp(t.TempDir(), "line")
			if err != nil {
				t.Fatal(err)
			}
			printContractLine(f, res)
			f.Close()
			b, _ := os.ReadFile(f.Name())
			var line map[string]json.RawMessage
			if err := json.Unmarshal(b, &line); err != nil {
				t.Fatalf("contract line is not JSON: %v\n%s", err, b)
			}
			if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
				t.Errorf("contract line keys: %s", b)
			}
			var metrics map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			}
			if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			for _, m := range contract(trace) {
				if metrics[m.Name].Value == nil {
					t.Errorf("%s trace=%v: contract line lacks %s", w.Name, trace, m.Name)
				}
			}
			if len(metrics) != len(contract(trace)) {
				t.Errorf("%s trace=%v: contract line has %d metrics, BENCHMARK.json declares %d", w.Name, trace, len(metrics), len(contract(trace)))
			}
		}
	}
}

// TestReadmeNamesEveryMetric keeps README.md's tables in step with the
// tables the benchmark runs from.
func TestReadmeNamesEveryMetric(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(b)
	for _, w := range workloads {
		if !strings.Contains(readme, "`"+w.Name+"`") {
			t.Errorf("README.md does not name workload %s", w.Name)
		}
	}
	for _, tbl := range [][]metric{endToEnd, perLayer} {
		for _, m := range tbl {
			if !strings.Contains(readme, "`"+m.Name+"`") {
				t.Errorf("README.md does not name metric %s", m.Name)
			}
		}
	}
}
