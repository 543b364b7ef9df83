package obs

// Fleet aggregation: a coordinator-side merged view of many remote
// registries. Each fabric worker snapshots its own Registry as a
// RegistrySnapshot (JSON over the MsgStatsReq/MsgStats RPC); the
// coordinator feeds the snapshots into a FleetView, which serves the
// merged fleet — every series re-labeled with worker="<name>" — as
// HTML, JSON, or Prometheus text on /fleetz. The merged exposition is
// built to pass ValidateExposition: one TYPE per name, unique series
// keys, complete histogram families; snapshots that would violate
// those invariants (a name registered as a different kind on another
// worker, a colliding series) are skipped rather than emitted broken.

import (
	"encoding/json"
	"fmt"
	"io"
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
	RingLen       int              `json:"ring_len"`
	RingCap       int              `json:"ring_cap"`
	Counters      []MetricPoint    `json:"counters,omitempty"`
	Gauges        []MetricPoint    `json:"gauges,omitempty"`
	Histograms    []HistogramPoint `json:"histograms,omitempty"`
}

// Export snapshots every metric in the registry as plain data.
func (r *Registry) Export() RegistrySnapshot {
	snap := RegistrySnapshot{
		UptimeSeconds: r.Uptime().Seconds(),
		RingLen:       r.RingLen(),
		RingCap:       r.RingCap(),
	}
	r.each(func(m interface{}) {
		md := metaOf(m)
		switch v := m.(type) {
		case *Counter:
			snap.Counters = append(snap.Counters, MetricPoint{
				Name: md.name, Labels: labelMap(md), Value: jsonSafe(v.Value())})
		case *Gauge:
			snap.Gauges = append(snap.Gauges, MetricPoint{
				Name: md.name, Labels: labelMap(md), Value: jsonSafe(v.Value())})
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

// renderLabels renders a canonical {k="v",...} block (keys sorted,
// values escaped); empty input renders "".
func renderLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ls := make([]Label, len(keys))
	for i, k := range keys {
		ls[i] = L(k, labels[k])
	}
	tmp := meta{labels: ls}
	return tmp.labelString()
}

// workerLabels returns the series labels with the worker identity
// added — unless the snapshot already labeled the series with a
// worker (the coordinator's own fabric metrics do), which is kept.
func workerLabels(labels map[string]string, worker string) map[string]string {
	out := make(map[string]string, len(labels)+1)
	for k, val := range labels {
		out[k] = val
	}
	if _, ok := out["worker"]; !ok {
		out["worker"] = worker
	}
	return out
}

// mergedName accumulates one metric name's samples across the fleet.
type mergedName struct {
	kind  string
	lines []string
}

// WritePrometheus writes the merged fleet in the Prometheus text
// format. Stale workers contribute only their age/up series. The
// output always passes ValidateExposition: kind collisions across
// workers skip the later worker's series, and duplicate series keys
// (possible when a snapshot already carried a worker label) are
// dropped.
func (v *FleetView) WritePrometheus(w io.Writer) {
	ms := v.members()

	names := make(map[string]*mergedName)
	get := func(name, kind string) *mergedName {
		m, ok := names[name]
		if !ok {
			m = &mergedName{kind: kind}
			names[name] = m
		}
		if m.kind != kind {
			return nil // kind collision: first registration wins
		}
		return m
	}
	seen := make(map[string]bool)

	// Liveness series for every member, fresh or stale.
	for _, mem := range ms {
		l := renderLabels(map[string]string{"worker": mem.name})
		if m := get("arams_fleet_worker_up", "gauge"); m != nil {
			up := 1
			if mem.stale {
				up = 0
			}
			key := "arams_fleet_worker_up" + l
			if !seen[key] {
				seen[key] = true
				m.lines = append(m.lines, fmt.Sprintf("arams_fleet_worker_up%s %d", l, up))
			}
		}
		if m := get("arams_fleet_worker_age_seconds", "gauge"); m != nil {
			key := "arams_fleet_worker_age_seconds" + l
			if !seen[key] {
				seen[key] = true
				m.lines = append(m.lines, fmt.Sprintf("arams_fleet_worker_age_seconds%s %s",
					l, fmtFloat(mem.age.Seconds())))
			}
		}
	}

	for _, mem := range ms {
		if mem.stale {
			continue
		}
		scalar := func(kind string, p MetricPoint) {
			m := get(p.Name, kind)
			if m == nil {
				return
			}
			l := renderLabels(workerLabels(p.Labels, mem.name))
			key := p.Name + l
			if seen[key] {
				return
			}
			seen[key] = true
			m.lines = append(m.lines, fmt.Sprintf("%s%s %s", p.Name, l, fmtFloat(p.Value)))
		}
		for _, c := range mem.snap.Counters {
			scalar("counter", c)
		}
		for _, g := range mem.snap.Gauges {
			scalar("gauge", g)
		}
		for _, h := range mem.snap.Histograms {
			m := get(h.Name, "histogram")
			if m == nil {
				continue
			}
			labels := workerLabels(h.Labels, mem.name)
			base := renderLabels(labels)
			key := h.Name + base
			if seen[key] {
				continue
			}
			seen[key] = true
			var cum uint64
			for i, c := range h.Counts {
				cum += c
				le := "+Inf"
				if i < len(h.Bounds) {
					le = fmtFloat(h.Bounds[i])
				}
				withLE := workerLabels(labels, mem.name)
				withLE["le"] = le
				m.lines = append(m.lines, fmt.Sprintf("%s_bucket%s %d", h.Name, renderLabels(withLE), cum))
			}
			m.lines = append(m.lines, fmt.Sprintf("%s_sum%s %s", h.Name, base, fmtFloat(h.Sum)))
			m.lines = append(m.lines, fmt.Sprintf("%s_count%s %d", h.Name, base, h.Count))
		}
	}

	order := make([]string, 0, len(names))
	for name := range names {
		order = append(order, name)
	}
	sort.Strings(order)
	for _, name := range order {
		m := names[name]
		if len(m.lines) == 0 {
			continue
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", name, m.kind)
		for _, line := range m.lines {
			fmt.Fprintln(w, line)
		}
	}
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
<table><tr><th>worker</th><th>age</th><th>uptime</th><th>counters</th><th>gauges</th><th>histograms</th><th>ring</th></tr>
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
		fmt.Fprintf(w, "<tr%s><td>%s</td><td>%s</td><td>%.1fs</td><td>%d</td><td>%d</td><td>%d</td><td>%d/%d</td></tr>\n",
			cls, m.name, age, m.snap.UptimeSeconds,
			len(m.snap.Counters), len(m.snap.Gauges), len(m.snap.Histograms),
			m.snap.RingLen, m.snap.RingCap)
	}
	fmt.Fprint(w, "</table>\n")
}
