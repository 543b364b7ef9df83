package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"time"
)

// fmtFloat renders a float the way the Prometheus text format expects.
func fmtFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelsWith renders the metric's labels plus one extra pair (used for
// the histogram le label); extraKey == "" appends nothing.
func labelsWith(md *meta, extraKey, extraVal string) string {
	if extraKey == "" {
		return md.labelString()
	}
	ls := append(append([]Label(nil), md.labels...), L(extraKey, extraVal))
	tmp := meta{labels: ls}
	return tmp.labelString()
}

// WritePrometheus writes every metric in the Prometheus text
// exposition format (version 0.0.4), followed by a small set of
// process metrics (uptime, goroutines, memory).
func (r *Registry) WritePrometheus(w io.Writer) {
	r.writeFamilies(w)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(w, "# TYPE process_uptime_seconds gauge\nprocess_uptime_seconds %s\n",
		fmtFloat(r.Uptime().Seconds()))
	fmt.Fprintf(w, "# TYPE go_goroutines gauge\ngo_goroutines %d\n", runtime.NumGoroutine())
	fmt.Fprintf(w, "# TYPE go_memstats_alloc_bytes gauge\ngo_memstats_alloc_bytes %d\n", ms.Alloc)
	fmt.Fprintf(w, "# TYPE go_memstats_sys_bytes gauge\ngo_memstats_sys_bytes %d\n", ms.Sys)
	fmt.Fprintf(w, "# TYPE go_gc_cycles_total counter\ngo_gc_cycles_total %d\n", ms.NumGC)
}

// writeFamilies writes the registry's metric families: one TYPE line
// per name, then its series in label order, a histogram as cumulative
// buckets (le last) plus _sum and _count. It is the only Prometheus
// text writer; /metrics adds the process block, /fleetz does not.
func (r *Registry) writeFamilies(w io.Writer) {
	lastType := ""
	r.each(func(m interface{}) {
		md := metaOf(m)
		if md.name != lastType {
			fmt.Fprintf(w, "# TYPE %s %s\n", md.name, md.kind)
			lastType = md.name
		}
		switch v := m.(type) {
		case *Counter:
			fmt.Fprintf(w, "%s%s %s\n", md.name, md.labelString(), fmtFloat(v.Value()))
		case *Gauge:
			fmt.Fprintf(w, "%s%s %s\n", md.name, md.labelString(), fmtFloat(v.Value()))
		case *Histogram:
			s := v.Snapshot()
			var cum uint64
			for i, c := range s.Counts {
				cum += c
				le := "+Inf"
				if i < len(s.Bounds) {
					le = fmtFloat(s.Bounds[i])
				}
				fmt.Fprintf(w, "%s_bucket%s %d\n", md.name, labelsWith(md, "le", le), cum)
			}
			fmt.Fprintf(w, "%s_sum%s %s\n", md.name, md.labelString(), fmtFloat(s.Sum))
			fmt.Fprintf(w, "%s_count%s %d\n", md.name, md.labelString(), s.Count)
		}
	})
}

// jsonHistogram is one histogram in the JSON exposition.
type jsonHistogram struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Count  uint64            `json:"count"`
	Sum    float64           `json:"sum"`
	Min    float64           `json:"min"`
	Max    float64           `json:"max"`
	Mean   float64           `json:"mean"`
	P50    float64           `json:"p50"`
	P90    float64           `json:"p90"`
	P99    float64           `json:"p99"`
}

type jsonSpan struct {
	Name       string            `json:"name"`
	Start      string            `json:"start"`
	DurationMS float64           `json:"duration_ms"`
	Trace      ID                `json:"trace_id,omitempty"`
	Span       ID                `json:"span_id,omitempty"`
	Parent     ID                `json:"parent_id,omitempty"`
	Attrs      map[string]string `json:"attrs,omitempty"`
}

// jsonSeries is one time-series ring in the JSON exposition; points
// are [unix_ms, value] pairs, oldest first.
type jsonSeries struct {
	Name   string       `json:"name"`
	Points [][2]float64 `json:"points"`
}

type jsonDump struct {
	UptimeSeconds float64           `json:"uptime_seconds"`
	Goroutines    int               `json:"goroutines"`
	AllocBytes    uint64            `json:"alloc_bytes"`
	SysBytes      uint64            `json:"sys_bytes"`
	GCCycles      uint32            `json:"gc_cycles"`
	Build         map[string]string `json:"build"`
	Counters      []MetricPoint     `json:"counters"`
	Gauges        []MetricPoint     `json:"gauges"`
	Histograms    []jsonHistogram   `json:"histograms"`
	Series        []jsonSeries      `json:"series"`
	Spans         []jsonSpan        `json:"spans"`
}

func labelMap(md *meta) map[string]string {
	if len(md.labels) == 0 {
		return nil
	}
	out := make(map[string]string, len(md.labels))
	for _, l := range md.labels {
		out[l.Key] = l.Value
	}
	return out
}

// jsonSafe maps NaN/Inf (invalid in JSON) to 0.
func jsonSafe(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// pointOf is a counter's or gauge's JSON form, the one /metrics.json
// and Export share.
func pointOf(md *meta, v float64) MetricPoint {
	return MetricPoint{Name: md.name, Labels: labelMap(md), Value: jsonSafe(v)}
}

// WriteJSON writes the whole registry — process stats, every metric
// with quantile summaries, and the recent-span ring — as one JSON
// document (the payload behind /metrics.json and the /statusz page).
func (r *Registry) WriteJSON(w io.Writer) error {
	dump := jsonDump{
		UptimeSeconds: r.Uptime().Seconds(),
		Goroutines:    runtime.NumGoroutine(),
		Counters:      []MetricPoint{},
		Gauges:        []MetricPoint{},
		Histograms:    []jsonHistogram{},
		Series:        []jsonSeries{},
		Spans:         []jsonSpan{},
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	dump.AllocBytes = ms.Alloc
	dump.SysBytes = ms.Sys
	dump.GCCycles = ms.NumGC
	dump.Build = map[string]string{"go": runtime.Version(), "platform": runtime.GOOS + "/" + runtime.GOARCH}
	r.mu.Lock()
	for k, v := range r.build {
		dump.Build[k] = v
	}
	r.mu.Unlock()

	r.each(func(m interface{}) {
		md := metaOf(m)
		switch v := m.(type) {
		case *Counter:
			dump.Counters = append(dump.Counters, pointOf(md, v.Value()))
		case *Gauge:
			dump.Gauges = append(dump.Gauges, pointOf(md, v.Value()))
		case *Histogram:
			s := v.Snapshot()
			dump.Histograms = append(dump.Histograms, jsonHistogram{
				Name:   md.name,
				Labels: labelMap(md),
				Count:  s.Count,
				Sum:    jsonSafe(s.Sum),
				Min:    jsonSafe(s.Min),
				Max:    jsonSafe(s.Max),
				Mean:   jsonSafe(s.Mean()),
				P50:    jsonSafe(s.Quantile(0.50)),
				P90:    jsonSafe(s.Quantile(0.90)),
				P99:    jsonSafe(s.Quantile(0.99)),
			})
		}
	})
	r.eachSeries(func(s *Series) {
		js := jsonSeries{Name: s.Name(), Points: [][2]float64{}}
		for _, p := range s.Snapshot() {
			js.Points = append(js.Points, [2]float64{
				float64(p.T.UnixMilli()), jsonSafe(p.V)})
		}
		dump.Series = append(dump.Series, js)
	})
	for _, sp := range r.Spans() {
		dump.Spans = append(dump.Spans, jsonSpan{
			Name:       sp.Name,
			Start:      sp.Start.Format(time.RFC3339Nano),
			DurationMS: float64(sp.Duration) / float64(time.Millisecond),
			Trace:      sp.Trace,
			Span:       sp.Span,
			Parent:     sp.Parent,
			Attrs:      sp.Attrs,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(dump)
}
