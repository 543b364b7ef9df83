package obs

// Fleet aggregation: a coordinator-side merged view of many remote
// registries. Each fabric worker snapshots its own Registry as a
// RegistrySnapshot (JSON over the MsgStatsReq/MsgStats RPC); the
// coordinator feeds the snapshots into a FleetView, which serves the
// fleet on /fleetz as HTML, JSON, or Prometheus text. The Prometheus
// form imports every member's snapshot, each series labelled
// worker="<name>", into a throwaway Registry and writes its families
// with the writer /metrics uses. A snapshot is wire input, so a series
// that registry cannot hold is skipped rather than emitted broken: an
// invalid metric or label name, a name another member registered as a
// different kind, a series key already taken, or a histogram whose
// buckets do not fit its bounds.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"
)

// MetricPoint is one scalar metric (counter or gauge) in a registry
// snapshot.
type MetricPoint struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// HistogramPoint is one histogram in a registry snapshot, carried as
// raw buckets so the merged view can re-render cumulative series
// without losing resolution.
type HistogramPoint struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Bounds []float64         `json:"bounds,omitempty"`
	Counts []uint64          `json:"counts,omitempty"`
	Sum    float64           `json:"sum"`
	Count  uint64            `json:"count"`
}

// RegistrySnapshot is a point-in-time export of a whole registry —
// the fleet-metrics payload a worker ships to its coordinator. It is
// plain data, safe to marshal as JSON.
type RegistrySnapshot struct {
	UptimeSeconds float64          `json:"uptime_seconds"`
	Counters      []MetricPoint    `json:"counters,omitempty"`
	Gauges        []MetricPoint    `json:"gauges,omitempty"`
	Histograms    []HistogramPoint `json:"histograms,omitempty"`
}

// Export snapshots every metric in the registry as plain data.
func (r *Registry) Export() RegistrySnapshot {
	snap := RegistrySnapshot{UptimeSeconds: r.Uptime().Seconds()}
	r.each(func(m interface{}) {
		md := metaOf(m)
		switch v := m.(type) {
		case *Counter:
			snap.Counters = append(snap.Counters, pointOf(md, v.Value()))
		case *Gauge:
			snap.Gauges = append(snap.Gauges, pointOf(md, v.Value()))
		case *Histogram:
			s := v.Snapshot()
			snap.Histograms = append(snap.Histograms, HistogramPoint{
				Name: md.name, Labels: labelMap(md),
				Bounds: s.Bounds, Counts: s.Counts,
				Sum: jsonSafe(s.Sum), Count: s.Count,
			})
		}
	})
	return snap
}

// DefaultFleetTTL is how long a worker snapshot stays fresh without an
// update before the fleet view declares the worker stale.
const DefaultFleetTTL = 15 * time.Second

// FleetView merges per-worker registry snapshots into one fleet-wide
// view. Remote workers push snapshots with Update (the fabric's
// heartbeat loop does this); local registries — typically the
// coordinator's own — are attached once with IncludeLocal and
// re-snapshotted live on every render. Workers whose last update is
// older than the TTL are reported stale: their series drop out of the
// merged exposition (a dead worker's counters would otherwise freeze
// at their last values forever), while their age stays visible via
// arams_fleet_worker_age_seconds.
type FleetView struct {
	ttl time.Duration

	mu     sync.Mutex
	remote map[string]*fleetEntry
	local  map[string]*Registry
}

type fleetEntry struct {
	snap RegistrySnapshot
	at   time.Time
}

// NewFleetView creates an empty fleet view; ttl <= 0 selects
// DefaultFleetTTL.
func NewFleetView(ttl time.Duration) *FleetView {
	if ttl <= 0 {
		ttl = DefaultFleetTTL
	}
	return &FleetView{
		ttl:    ttl,
		remote: make(map[string]*fleetEntry),
		local:  make(map[string]*Registry),
	}
}

// Update stores (or replaces) the snapshot for a remote worker and
// refreshes its liveness clock.
func (v *FleetView) Update(worker string, snap RegistrySnapshot) {
	v.mu.Lock()
	v.remote[worker] = &fleetEntry{snap: snap, at: time.Now()}
	v.mu.Unlock()
}

// IncludeLocal attaches an in-process registry under the given worker
// name; it is re-exported live on every render and is never stale.
func (v *FleetView) IncludeLocal(worker string, r *Registry) {
	v.mu.Lock()
	v.local[worker] = r
	v.mu.Unlock()
}

// fleetMember is one worker's state at render time.
type fleetMember struct {
	name  string
	snap  RegistrySnapshot
	age   time.Duration
	stale bool
}

func (v *FleetView) members() []fleetMember {
	v.mu.Lock()
	out := make([]fleetMember, 0, len(v.remote)+len(v.local))
	for name, r := range v.local {
		out = append(out, fleetMember{name: name, snap: r.Export()})
	}
	now := time.Now()
	for name, e := range v.remote {
		age := now.Sub(e.at)
		out = append(out, fleetMember{name: name, snap: e.snap, age: age, stale: age > v.ttl})
	}
	v.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].name < out[b].name })
	return out
}

// WritePrometheus writes the merged fleet in the Prometheus text
// format: the liveness gauges of every member first, then each fresh
// member's imported series (a stale member contributes only its up and
// age series), written as metric families with no process block. On a
// kind collision the first member in name order wins, and a duplicate
// series key (possible when a snapshot already carried a worker label)
// is dropped, so the output passes ValidateExposition whatever the
// snapshots hold.
func (v *FleetView) WritePrometheus(w io.Writer) {
	ms := v.members()
	reg := NewRegistry()
	for _, mem := range ms {
		up := 1.0
		if mem.stale {
			up = 0
		}
		reg.Gauge("arams_fleet_worker_up", L("worker", mem.name)).Set(up)
		reg.Gauge("arams_fleet_worker_age_seconds", L("worker", mem.name)).Set(mem.age.Seconds())
	}
	for _, mem := range ms {
		if !mem.stale {
			reg.importSnapshot(mem.snap, mem.name)
		}
	}
	reg.WriteFamilies(w)
}

// importSnapshot registers a member's series in r, each labelled
// worker=<name> unless the snapshot already carries a worker label,
// which is kept. A series r cannot hold is skipped (see importable).
func (r *Registry) importSnapshot(s RegistrySnapshot, worker string) {
	for _, p := range s.Counters {
		if ls, ok := r.importable(p.Name, "counter", p.Labels, worker); ok {
			r.Counter(p.Name, ls...).Add(p.Value)
		}
	}
	for _, p := range s.Gauges {
		if ls, ok := r.importable(p.Name, "gauge", p.Labels, worker); ok {
			r.Gauge(p.Name, ls...).Set(p.Value)
		}
	}
	for _, p := range s.Histograms {
		ls, ok := r.importable(p.Name, "histogram", p.Labels, worker)
		if !ok || !fitsBounds(p.Bounds, p.Counts) {
			continue
		}
		h := r.HistogramBuckets(p.Name, append([]float64{}, p.Bounds...), ls...)
		copy(h.counts, p.Counts)
		h.count, h.sum = p.Count, p.Sum
	}
}

// importable returns a series' labels, sorted by key with the worker
// label added, if r can take the series: its metric and label names
// are valid (and a histogram carries no le label of its own), r holds
// the name as no other kind, and r holds no series of that key yet.
func (r *Registry) importable(name, kind string, labels map[string]string, worker string) ([]Label, bool) {
	if !validMetricName(name) {
		return nil, false
	}
	ls := make([]Label, 0, len(labels)+1)
	for k, val := range labels {
		if !validLabelName(k) || (kind == "histogram" && k == "le") {
			return nil, false
		}
		ls = append(ls, L(k, val))
	}
	if _, ok := labels["worker"]; !ok {
		ls = append(ls, L("worker", worker))
	}
	sort.Slice(ls, func(a, b int) bool { return ls[a].Key < ls[b].Key })
	r.mu.Lock()
	defer r.mu.Unlock()
	if k, ok := r.kinds[name]; ok && k != kind {
		return nil, false
	}
	_, taken := r.metrics[metricID(name, ls)]
	return ls, !taken
}

// fitsBounds reports whether a histogram's bucket counts fit its
// bounds: finite, strictly ascending bounds and one count per bound
// plus the +Inf bucket.
func fitsBounds(bounds []float64, counts []uint64) bool {
	if len(counts) != len(bounds)+1 {
		return false
	}
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) || (i > 0 && b <= bounds[i-1]) {
			return false
		}
	}
	return true
}

// FleetMember is one worker in the /fleetz?format=json payload.
type FleetMember struct {
	Name       string           `json:"name"`
	AgeSeconds float64          `json:"age_seconds"`
	Stale      bool             `json:"stale"`
	Snapshot   RegistrySnapshot `json:"snapshot"`
}

// FleetzPayload is the JSON document /fleetz?format=json serves.
type FleetzPayload struct {
	Workers []FleetMember `json:"workers"`
}

// ServeHTTP renders the fleet: HTML by default, ?format=json for the
// raw merged snapshots, ?format=prom for the merged Prometheus
// exposition.
func (v *FleetView) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	switch req.URL.Query().Get("format") {
	case "prom":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		v.WritePrometheus(w)
	case "json":
		w.Header().Set("Content-Type", "application/json")
		payload := FleetzPayload{Workers: []FleetMember{}}
		for _, m := range v.members() {
			payload.Workers = append(payload.Workers, FleetMember{
				Name: m.name, AgeSeconds: m.age.Seconds(), Stale: m.stale, Snapshot: m.snap})
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(payload)
	default:
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		v.writeHTML(w)
	}
}

func (v *FleetView) writeHTML(w io.Writer) {
	fmt.Fprint(w, `<!doctype html><meta charset="utf-8"><title>fleetz</title>
<style>body{font:14px/1.5 system-ui,sans-serif;margin:2rem}table{border-collapse:collapse}
td,th{border:1px solid #ccc;padding:.3rem .7rem;text-align:left}.stale{color:#b00}</style>
<h1>Fleet</h1>
<p><a href="?format=prom">prometheus</a> · <a href="?format=json">json</a></p>
<table><tr><th>worker</th><th>age</th><th>uptime</th><th>counters</th><th>gauges</th><th>histograms</th></tr>
`)
	for _, m := range v.members() {
		cls := ""
		if m.stale {
			cls = ` class="stale"`
		}
		age := "live"
		if m.age > 0 {
			age = m.age.Truncate(time.Millisecond).String()
		}
		fmt.Fprintf(w, "<tr%s><td>%s</td><td>%s</td><td>%.1fs</td><td>%d</td><td>%d</td><td>%d</td></tr>\n",
			cls, m.name, age, m.snap.UptimeSeconds,
			len(m.snap.Counters), len(m.snap.Gauges), len(m.snap.Histograms))
	}
	fmt.Fprint(w, "</table>\n")
}
