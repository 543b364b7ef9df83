package obs

import (
	"bytes"
	"encoding/json"
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
	spans := r.Spans()
	if len(spans) != 1 || spans[0].Name != "umap" || spans[0].Duration != d {
		t.Fatalf("ring = %+v", spans)
	}
}

func TestSpanRingNewestFirstAndCapacity(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < DefaultRingCap+10; i++ {
		func() { sp := r.StartSpan("s"); sp.End() }()
	}
	spans := r.Spans()
	if len(spans) != DefaultRingCap {
		t.Fatalf("ring holds %d, want %d", len(spans), DefaultRingCap)
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Start.After(spans[i-1].Start) {
			t.Fatal("spans not newest-first")
		}
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

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total").Inc()
	r.Gauge("g").Set(4)
	func() { sp := r.StartSpan("stage1"); sp.End() }()
	r.SetBuildInfo("mat_kernels", "go")
	r.Reset() // build facts are process wiring, not recorded state
	r.Counter("c_total").Inc()
	func() { sp := r.StartSpan("stage1"); sp.End() }()

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
	func() { sp := r.StartSpan("s"); sp.End() }()
	r.Reset()
	if len(r.Spans()) != 0 {
		t.Fatal("spans survived reset")
	}
	if got := r.Counter("c_total").Value(); got != 0 {
		t.Fatalf("counter survived reset: %v", got)
	}
}
