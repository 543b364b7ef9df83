package obs

import (
	"sort"
	"sync"
	"time"
)

// defaultSeriesCap bounds one time series' history: at one audit point
// every few seconds this holds hours of sparkline history in a few KiB.
const defaultSeriesCap = 512

// Sample is one timestamped point of a Series.
type Sample struct {
	T time.Time
	V float64
}

// Series is a fixed-capacity ring of timestamped samples — the
// time-dimension complement of a Gauge. Gauges answer "what is the
// value now"; a Series answers "how did it move", which is what the
// /statusz sparklines and the audit layer's drift views render.
// All methods are safe for concurrent use.
type Series struct {
	name string

	mu   sync.Mutex
	buf  []Sample
	next int
	n    int
}

// Series returns (registering on first use) the time series with the
// given name.
func (r *Registry) Series(name string) *Series {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.series[name]; ok {
		return s
	}
	if r.series == nil {
		r.series = make(map[string]*Series)
	}
	s := &Series{name: name, buf: make([]Sample, defaultSeriesCap)}
	r.series[name] = s
	return s
}

// Name returns the series name.
func (s *Series) Name() string { return s.name }

// Add appends a sample stamped now.
func (s *Series) Add(v float64) { s.AddAt(time.Now(), v) }

// AddAt appends a sample with an explicit timestamp.
func (s *Series) AddAt(t time.Time, v float64) {
	s.mu.Lock()
	s.buf[s.next] = Sample{T: t, V: v}
	s.next = (s.next + 1) % len(s.buf)
	if s.n < len(s.buf) {
		s.n++
	}
	s.mu.Unlock()
}

// Snapshot returns the retained samples, oldest first.
func (s *Series) Snapshot() []Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Sample, 0, s.n)
	for i := 0; i < s.n; i++ {
		idx := (s.next - s.n + i + len(s.buf)) % len(s.buf)
		out = append(out, s.buf[idx])
	}
	return out
}

// eachSeries snapshots the series set sorted by name and calls fn for
// each outside the registry lock.
func (r *Registry) eachSeries(fn func(*Series)) {
	r.mu.Lock()
	ss := make([]*Series, 0, len(r.series))
	for _, s := range r.series {
		ss = append(ss, s)
	}
	r.mu.Unlock()
	sort.Slice(ss, func(a, b int) bool { return ss[a].name < ss[b].name })
	for _, s := range ss {
		fn(s)
	}
}
