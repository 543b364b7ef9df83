package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestEscapeLabelValue pins the exposition-format escaping rules:
// backslash, double-quote, and newline are escaped; everything else —
// tabs, control bytes, UTF-8 — passes through verbatim (Go's %q would
// wrongly emit \t and \uNNNN sequences).
func TestEscapeLabelValue(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"plain", "plain"},
		{`back\slash`, `back\\slash`},
		{`say "hi"`, `say \"hi\"`},
		{"line1\nline2", `line1\nline2`},
		{"tab\there", "tab\there"},
		{"utf8 ✓ ünïcode", "utf8 ✓ ünïcode"},
		{"\\\"\n", `\\\"\n`},
		{"", ""},
	} {
		if got := escapeLabelValue(tc.in); got != tc.want {
			t.Errorf("escapeLabelValue(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestWritePrometheusHostileLabelValues feeds label values containing
// every character the exposition format treats specially and asserts
// the rendered line is exactly the escaped form — one line, parseable,
// no raw newline or quote breaking the metric apart.
func TestWritePrometheusHostileLabelValues(t *testing.T) {
	r := NewRegistry()
	hostile := "back\\slash \"quote\"\nsecond line\ttab ✓"
	r.Counter("hostile_total", L("path", hostile)).Inc()
	r.Gauge("hostile_gauge", L("v", `a\b"c`)).Set(2)

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()

	wantCounter := "hostile_total{path=\"back\\\\slash \\\"quote\\\"\\nsecond line\ttab ✓\"} 1\n"
	if !strings.Contains(out, wantCounter) {
		t.Fatalf("exposition missing escaped counter line %q:\n%s", wantCounter, out)
	}
	if !strings.Contains(out, `hostile_gauge{v="a\\b\"c"} 2`+"\n") {
		t.Fatalf("exposition missing escaped gauge line:\n%s", out)
	}
	// No line may contain an unescaped interior quote: every line must
	// have balanced structure — in particular the raw newline in the
	// value must not have produced a dangling continuation line.
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "second line") {
			t.Fatalf("raw newline leaked into exposition: %q", line)
		}
	}
}

// TestWriteJSONHostileLabelValues: the JSON exposition must stay valid
// JSON whatever bytes land in label values.
func TestWriteJSONHostileLabelValues(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", L("k", "quote\" back\\ nl\n tab\t ✓")).Inc()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("hostile labels broke JSON exposition:\n%s", buf.String())
	}
}

// TestHistogramQuantileEdgeCases covers the degenerate inputs the
// interpolation must survive: empty histograms, exact q=0/q=1,
// single-bucket data, NaN inputs, and infinite observations.
func TestHistogramQuantileEdgeCases(t *testing.T) {
	r := NewRegistry()

	empty := r.HistogramBuckets("empty", []float64{1, 2})
	for _, q := range []float64{0, 0.5, 1, math.NaN()} {
		if got := empty.Snapshot().Quantile(q); !math.IsNaN(got) {
			t.Fatalf("empty histogram Quantile(%v) = %v, want NaN", q, got)
		}
	}

	single := r.HistogramBuckets("single", []float64{10})
	for _, v := range []float64{5, 6, 7} {
		single.Observe(v)
	}
	if got := single.Snapshot().Quantile(0); got != 5 {
		t.Fatalf("q=0 = %v, want observed min 5", got)
	}
	if got := single.Snapshot().Quantile(1); got != 7 {
		t.Fatalf("q=1 = %v, want observed max 7", got)
	}
	if got := single.Snapshot().Quantile(0.5); got < 5 || got > 7 {
		t.Fatalf("single-bucket median %v outside observed [5,7]", got)
	}
	if got := single.Snapshot().Quantile(math.NaN()); !math.IsNaN(got) {
		t.Fatalf("Quantile(NaN) = %v, want NaN", got)
	}

	nan := r.HistogramBuckets("nan", []float64{1})
	nan.Observe(math.NaN())
	if nan.Count() != 0 {
		t.Fatalf("NaN observation counted: %d", nan.Count())
	}
	nan.Observe(0.5)
	if nan.Count() != 1 || nan.Snapshot().Quantile(0.5) != 0.5 {
		t.Fatalf("histogram broken after NaN observation: count=%d median=%v", nan.Count(), nan.Snapshot().Quantile(0.5))
	}

	// +Inf observations land in the overflow bucket; a rank that falls
	// there reports the last finite edge instead of interpolating
	// against infinity, and q=1 reports the true (infinite) max.
	inf := r.HistogramBuckets("inf", []float64{1, 2})
	inf.Observe(0.5)
	inf.Observe(math.Inf(1))
	if got := inf.Snapshot().Quantile(0.9); got != 2 {
		t.Fatalf("rank-in-overflow quantile = %v, want last finite edge 2", got)
	}
	if got := inf.Snapshot().Quantile(1); !math.IsInf(got, 1) {
		t.Fatalf("q=1 with +Inf max = %v, want +Inf", got)
	}

	ninf := r.HistogramBuckets("ninf", []float64{1, 2})
	ninf.Observe(math.Inf(-1))
	ninf.Observe(0.5)
	if got := ninf.Snapshot().Quantile(0.3); math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("rank in a −Inf-floored bucket = %v, want finite", got)
	}
	if got := ninf.Snapshot().Quantile(0); !math.IsInf(got, -1) {
		t.Fatalf("q=0 with −Inf min = %v, want −Inf", got)
	}
}
