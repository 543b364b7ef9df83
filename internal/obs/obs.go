// Package obs is the repository's stdlib-only observability layer: a
// process-global registry of counters, gauges, and histograms (with
// streaming quantile estimates), plus lightweight span tracing that
// feeds per-stage duration histograms and an in-memory trace ring.
//
// The paper's system is an *online* monitor — frames stream through
// preprocess → ARAMS sketch → merge → PCA → UMAP → OPTICS/ABOD at the
// machine repetition rate — so the pipeline itself must be observable
// while it runs. Every hot layer of this repository records into the
// default registry, and cmd/lclsmon / cmd/lclssim expose it over HTTP
// (see Handler): Prometheus text at /metrics, JSON at /metrics.json,
// a self-contained live dashboard at /statusz, and net/http/pprof at
// /debug/pprof/.
//
// Recording is cheap by design: counters and gauges are single atomic
// words, histograms take a short mutex, and spans cost one time.Now
// per edge — safe to leave enabled in production paths.
package obs

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one key="value" pair attached to a metric.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// meta is the identity shared by every metric kind.
type meta struct {
	name   string
	labels []Label
	kind   string // "counter" | "gauge" | "histogram"
}

// escapeLabelValue escapes a label value per the Prometheus text
// exposition format (version 0.0.4): only backslash, double-quote, and
// newline are escaped; every other byte — tabs, control characters,
// UTF-8 — passes through verbatim. Go's %q is NOT equivalent: it would
// emit \t, \xNN, and \uNNNN sequences the exposition format treats as
// a literal backslash followed by junk.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 8)
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// labelString renders {k="v",...} or "" for no labels, with values
// escaped for the Prometheus exposition format.
func (m *meta) labelString() string {
	if len(m.labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range m.labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=\"%s\"", l.Key, escapeLabelValue(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

// id is the registry key: name plus canonically-sorted labels.
func metricID(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(a, b int) bool { return ls[a].Key < ls[b].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('|')
	for _, l := range ls {
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte(';')
	}
	return b.String()
}

// Registry holds a set of named metrics, a ring of recent spans, a
// store of completed traces, and (optionally) an armed flight
// recorder. All methods are safe for concurrent use.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]interface{} // id → *Counter | *Gauge | *Histogram
	kinds   map[string]string      // metric name → kind (one kind per name)
	series  map[string]*Series     // name → time-series ring
	extra   map[string]http.Handler
	build   map[string]string // static facts about this build (SetBuildInfo)
	start   time.Time
	ring    spanRing
	traces  traceStore
	flight  atomic.Pointer[FlightRecorder]

	// flightHooks are callbacks fired (each on its own goroutine) after
	// a flight dump is written — the fabric uses one to fan a
	// coordinator-side trigger out to remote workers.
	flightHookMu sync.Mutex
	flightHooks  map[int]func(reason, triggerID, path string)
	flightHookN  int

	// stageHists caches the per-stage wall-time histogram so Span.End
	// resolves it with one lock-free map load instead of building a
	// metricID (alloc + label sort) and taking the registry lock on
	// every call.
	stageHists sync.Map // span name → *Histogram
}

// stageHist returns the cached stage histogram for a span name,
// resolving and caching it through the registry on first use.
func (r *Registry) stageHist(name string) *Histogram {
	if h, ok := r.stageHists.Load(name); ok {
		return h.(*Histogram)
	}
	actual, _ := r.stageHists.LoadOrStore(name, r.Histogram(StageHistogramName, L("stage", name)))
	return actual.(*Histogram)
}

// NewRegistry creates an empty registry with the default span-ring
// capacity (SetRingCap resizes it).
func NewRegistry() *Registry {
	return &Registry{
		metrics: make(map[string]interface{}),
		kinds:   make(map[string]string),
		start:   time.Now(),
		ring:    newSpanRing(DefaultRingCap),
	}
}

// SetRingCap resizes the span ring, dropping currently held spans
// (values < 1 select DefaultRingCap). Intended for startup
// configuration (lclsmon -obs-ring).
func (r *Registry) SetRingCap(ringCap int) { r.ring.setCap(ringCap) }

// RingCap reports the span ring's current capacity.
func (r *Registry) RingCap() int { return r.ring.capacity() }

var defaultRegistry = NewRegistry()

// Default returns the process-global registry every package in this
// repository records into.
func Default() *Registry { return defaultRegistry }

// lookup returns the metric registered under (name, labels), creating
// it with mk when absent. It panics if the name is already registered
// with a different kind — Prometheus requires one kind per name.
func (r *Registry) lookup(name, kind string, labels []Label, mk func(meta) interface{}) interface{} {
	id := metricID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[id]; ok {
		return m
	}
	if k, ok := r.kinds[name]; ok && k != kind {
		panic(fmt.Sprintf("obs: metric %q already registered as %s, requested %s", name, k, kind))
	}
	m := mk(meta{name: name, labels: append([]Label(nil), labels...), kind: kind})
	r.metrics[id] = m
	r.kinds[name] = kind
	return m
}

// Counter returns (registering on first use) the counter with the
// given name and labels.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return r.lookup(name, "counter", labels, func(md meta) interface{} {
		return &Counter{md: md}
	}).(*Counter)
}

// Gauge returns (registering on first use) the gauge with the given
// name and labels.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	return r.lookup(name, "gauge", labels, func(md meta) interface{} {
		return &Gauge{md: md}
	}).(*Gauge)
}

// Histogram returns (registering on first use) a histogram with the
// default duration-oriented buckets (seconds, ~5µs to 5min).
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	return r.HistogramBuckets(name, nil, labels...)
}

// HistogramBuckets is Histogram with explicit bucket upper bounds
// (ascending). nil selects the default duration buckets.
func (r *Registry) HistogramBuckets(name string, bounds []float64, labels ...Label) *Histogram {
	return r.lookup(name, "histogram", labels, func(md meta) interface{} {
		return newHistogram(md, bounds)
	}).(*Histogram)
}

// each snapshots the metric set (sorted by name then label string) and
// calls fn for every metric outside the registry lock.
func (r *Registry) each(fn func(interface{})) {
	r.mu.Lock()
	ms := make([]interface{}, 0, len(r.metrics))
	for _, m := range r.metrics {
		ms = append(ms, m)
	}
	r.mu.Unlock()
	sort.Slice(ms, func(a, b int) bool {
		ma, mb := metaOf(ms[a]), metaOf(ms[b])
		if ma.name != mb.name {
			return ma.name < mb.name
		}
		return ma.labelString() < mb.labelString()
	})
	for _, m := range ms {
		fn(m)
	}
}

func metaOf(m interface{}) *meta {
	switch v := m.(type) {
	case *Counter:
		return &v.md
	case *Gauge:
		return &v.md
	case *Histogram:
		return &v.md
	}
	panic("obs: unknown metric type")
}

// Uptime is the time since the registry was created (process start for
// the default registry).
func (r *Registry) Uptime() time.Duration { return time.Since(r.start) }

// SetBuildInfo records one static fact about how this process was built
// or what it selected at start-up (which kernel set the CPU allows,
// say). /metrics.json carries the facts as "build" and /statusz lists
// them, so a report copied from either says what produced its numbers.
// Like the extra endpoints they are process wiring: Reset keeps them.
func (r *Registry) SetBuildInfo(key, value string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.build == nil {
		r.build = make(map[string]string)
	}
	r.build[key] = value
}
