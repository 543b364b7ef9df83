package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrentAdds(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("counter = %v, want 8000", got)
	}
	c.Add(-5) // negative deltas are ignored
	if got := c.Value(); got != 8000 {
		t.Fatalf("counter after negative add = %v, want 8000", got)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test_gauge")
	g.Set(3.5)
	g.Add(-1)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
	g.SetInt(7)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %v, want 7", got)
	}
}

func TestRegistryIdentityAndConflicts(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", L("k", "v"))
	b := r.Counter("x_total", L("k", "v"))
	if a != b {
		t.Fatal("same name+labels must return the same counter")
	}
	c := r.Counter("x_total", L("k", "other"))
	if a == c {
		t.Fatal("different labels must return a distinct counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering x_total as a gauge should panic")
		}
	}()
	r.Gauge("x_total")
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	bounds := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	h := r.HistogramBuckets("lat", bounds)
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if mean := h.Snapshot().Mean(); math.Abs(mean-50.5) > 1e-9 {
		t.Fatalf("mean = %v, want 50.5", mean)
	}
	for _, tc := range []struct{ q, want, tol float64 }{
		{0.50, 50, 10},
		{0.90, 90, 10},
		{0.99, 99, 10},
		{0, 1, 0},
		{1, 100, 0},
	} {
		if got := h.Snapshot().Quantile(tc.q); math.Abs(got-tc.want) > tc.tol {
			t.Fatalf("q%v = %v, want %v ± %v", tc.q, got, tc.want, tc.tol)
		}
	}
}

func TestHistogramConstantStreamExactQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("const_seconds")
	for i := 0; i < 50; i++ {
		h.Observe(0.042)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if got := h.Snapshot().Quantile(q); got != 0.042 {
			t.Fatalf("q%v = %v, want exactly 0.042 (min/max clamp)", q, got)
		}
	}
}

func TestHistogramEmptyAndOverflow(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramBuckets("o", []float64{1, 2})
	if !math.IsNaN(h.Snapshot().Quantile(0.5)) {
		t.Fatal("empty histogram quantile should be NaN")
	}
	h.Observe(99) // overflow bucket
	if got := h.Snapshot().Quantile(0.5); got != 99 {
		t.Fatalf("overflow quantile = %v, want 99", got)
	}
}

// jsonSpans returns the spans list of the registry's JSON exposition.
func jsonSpans(t *testing.T, r *Registry) []jsonSpan {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Spans []jsonSpan `json:"spans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	return dump.Spans
}

// TestSpanRecordsHistogramAndRing: every span is timed into its stage
// histogram; only a traced one reaches the JSON spans list, which reads
// the trace store (there is no span ring).
func TestSpanRecordsHistogramAndRing(t *testing.T) {
	r := NewRegistry()
	sp := r.StartSpan("umap")
	time.Sleep(2 * time.Millisecond)
	d := sp.End()
	if d < 2*time.Millisecond {
		t.Fatalf("span duration %v too short", d)
	}
	h := r.Histogram(StageHistogramName, L("stage", "umap"))
	if h.Count() != 1 {
		t.Fatalf("stage histogram count = %d, want 1", h.Count())
	}
	if spans := jsonSpans(t, r); len(spans) != 0 {
		t.Fatalf("untraced span listed: %+v", spans)
	}
	tr := r.StartTrace("umap")
	d = tr.End()
	if h.Count() != 2 {
		t.Fatalf("stage histogram count = %d, want 2", h.Count())
	}
	spans := jsonSpans(t, r)
	if len(spans) != 1 || spans[0].Name != "umap" || spans[0].Trace != tr.Context().Trace ||
		spans[0].DurationMS != float64(d)/float64(time.Millisecond) {
		t.Fatalf("spans = %+v", spans)
	}
}

// TestSpanRingNewestFirstAndCapacity: the JSON spans list holds the
// retained traces' spans newest start first, at most jsonSpansMax of
// them, so the oldest trace's spans fall off first.
func TestSpanRingNewestFirstAndCapacity(t *testing.T) {
	r := NewRegistry()
	const traces, children = 4, 100
	for i := 0; i < traces; i++ {
		root := r.StartTrace(fmt.Sprintf("root%d", i))
		for j := 0; j < children; j++ {
			c := root.StartChild(fmt.Sprintf("c%d", i*children+j))
			c.End()
		}
		root.End()
	}
	spans := jsonSpans(t, r)
	if len(spans) != jsonSpansMax {
		t.Fatalf("spans list holds %d, want %d", len(spans), jsonSpansMax)
	}
	names := make(map[string]bool, len(spans))
	var prev time.Time
	for i, sp := range spans {
		names[sp.Name] = true
		start, err := time.Parse(time.RFC3339Nano, sp.Start)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && start.After(prev) {
			t.Fatal("spans not newest-first")
		}
		prev = start
	}
	if newest := fmt.Sprintf("c%d", traces*children-1); !names[newest] {
		t.Errorf("newest span %s not listed", newest)
	}
	if names["root0"] || names["c0"] {
		t.Error("oldest trace's spans listed past the bound")
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("frames_total", L("kind", "beam")).Add(3)
	r.Gauge("ell").Set(25)
	h := r.HistogramBuckets("dur_seconds", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(9)

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()

	for _, want := range []string{
		"# TYPE frames_total counter\n",
		"frames_total{kind=\"beam\"} 3\n",
		"# TYPE ell gauge\n",
		"ell 25\n",
		"# TYPE dur_seconds histogram\n",
		"dur_seconds_bucket{le=\"1\"} 1\n",
		"dur_seconds_bucket{le=\"2\"} 2\n",
		"dur_seconds_bucket{le=\"+Inf\"} 3\n",
		"dur_seconds_sum 11\n",
		"dur_seconds_count 3\n",
		"process_uptime_seconds",
		"go_goroutines",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE dur_seconds histogram") != 1 {
		t.Fatal("TYPE line must appear exactly once per metric name")
	}
}

// TestWritePrometheusFamiliesBytes pins the metric families /metrics
// writes for a fixed registry, byte for byte: name order, label order
// as registered, le last, escaped values, non-finite values.
func TestWritePrometheusFamiliesBytes(t *testing.T) {
	r := NewRegistry()
	r.Counter("frames_total", L("kind", "beam")).Add(3)
	r.Counter("frames_total", L("kind", "diff\"raction\\\n")).Add(0.25)
	r.Counter("a_total").Inc()
	r.Gauge("ell").Set(25)
	r.Gauge("temp", L("shard", "1"), L("host", "b")).Set(math.NaN())
	r.Gauge("temp", L("shard", "0"), L("host", "a")).Set(math.Inf(-1))
	h := r.HistogramBuckets("dur_seconds", []float64{1})
	h.Observe(0.5)
	h.Observe(9)
	h2 := r.HistogramBuckets("lat_seconds", []float64{1e-3, 0.25, 4}, L("stage", "x"))
	h2.Observe(0.1)
	h2.Observe(0.2)
	h2.Observe(100)

	const want = "# TYPE a_total counter\na_total 1\n" +
		"# TYPE dur_seconds histogram\n" +
		"dur_seconds_bucket{le=\"1\"} 1\ndur_seconds_bucket{le=\"+Inf\"} 2\n" +
		"dur_seconds_sum 9.5\ndur_seconds_count 2\n" +
		"# TYPE ell gauge\nell 25\n" +
		"# TYPE frames_total counter\n" +
		"frames_total{kind=\"beam\"} 3\nframes_total{kind=\"diff\\\"raction\\\\\\n\"} 0.25\n" +
		"# TYPE lat_seconds histogram\n" +
		"lat_seconds_bucket{stage=\"x\",le=\"0.001\"} 0\n" +
		"lat_seconds_bucket{stage=\"x\",le=\"0.25\"} 2\n" +
		"lat_seconds_bucket{stage=\"x\",le=\"4\"} 2\n" +
		"lat_seconds_bucket{stage=\"x\",le=\"+Inf\"} 3\n" +
		"lat_seconds_sum{stage=\"x\"} 100.3\nlat_seconds_count{stage=\"x\"} 3\n" +
		"# TYPE temp gauge\ntemp{shard=\"0\",host=\"a\"} -Inf\ntemp{shard=\"1\",host=\"b\"} NaN\n"

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	got, _, ok := strings.Cut(buf.String(), "# TYPE process_uptime_seconds gauge\n")
	if !ok {
		t.Fatalf("no process block:\n%s", buf.String())
	}
	if got != want {
		t.Fatalf("families changed:\ngot  %q\nwant %q", got, want)
	}
}

// TestWriteJSONNonFiniteScalar: a gauge can hold NaN or ±Inf (a fabric
// worker's uptime is a float off the wire); /metrics.json must still
// encode, with the value mapped to 0 as Export maps it.
func TestWriteJSONNonFiniteScalar(t *testing.T) {
	r := NewRegistry()
	r.Gauge("nan_gauge").Set(math.NaN())
	r.Gauge("inf_gauge").Set(math.Inf(1))
	r.Counter("inf_total").Add(math.Inf(1))

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var dump struct {
		Counters []MetricPoint `json:"counters"`
		Gauges   []MetricPoint `json:"gauges"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(dump.Counters) != 1 || len(dump.Gauges) != 2 {
		t.Fatalf("counters %+v, gauges %+v", dump.Counters, dump.Gauges)
	}
	for _, p := range append(dump.Counters, dump.Gauges...) {
		if p.Value != 0 {
			t.Errorf("%s = %v, want 0", p.Name, p.Value)
		}
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total").Inc()
	r.Gauge("g").Set(4)
	func() { sp := r.StartTrace("stage1"); sp.End() }()
	r.SetBuildInfo("mat_kernels", "go")
	r.Reset() // build facts are process wiring, not recorded state
	r.Counter("c_total").Inc()
	func() { sp := r.StartTrace("stage1"); sp.End() }()

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		UptimeSeconds float64           `json:"uptime_seconds"`
		Build         map[string]string `json:"build"`
		Counters      []struct {
			Name  string  `json:"name"`
			Value float64 `json:"value"`
		} `json:"counters"`
		Histograms []struct {
			Name  string            `json:"name"`
			Count uint64            `json:"count"`
			P50   float64           `json:"p50"`
			Label map[string]string `json:"labels"`
		} `json:"histograms"`
		Spans []struct {
			Name string `json:"name"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(dump.Counters) != 1 || dump.Counters[0].Value != 1 {
		t.Fatalf("counters = %+v", dump.Counters)
	}
	if len(dump.Histograms) != 1 || dump.Histograms[0].Count != 1 {
		t.Fatalf("histograms = %+v (span should have registered one)", dump.Histograms)
	}
	if len(dump.Spans) != 1 || dump.Spans[0].Name != "stage1" {
		t.Fatalf("spans = %+v", dump.Spans)
	}
	if dump.Build["mat_kernels"] != "go" || dump.Build["go"] != runtime.Version() {
		t.Fatalf("build = %v", dump.Build)
	}
}

func TestReset(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total").Inc()
	func() { sp := r.StartTrace("s"); sp.End() }()
	r.Reset()
	if spans := jsonSpans(t, r); len(spans) != 0 {
		t.Fatalf("spans survived reset: %+v", spans)
	}
	if got := r.Counter("c_total").Value(); got != 0 {
		t.Fatalf("counter survived reset: %v", got)
	}
}
