package obs

import (
	"sync"
	"time"
)

// StageHistogramName is the wall-time histogram every span records
// into, with a stage="<span name>" label — so /metrics carries one
// duration histogram per pipeline stage.
const StageHistogramName = "arams_stage_duration_seconds"

// DefaultRingCap is the span-ring capacity NewRegistry selects.
const DefaultRingCap = 256

// Span measures one timed unit of work (a pipeline stage, a merge
// round, a snapshot). Obtain with StartSpan/StartTrace/StartChild,
// finish with End. A span started from a trace root (or from another
// traced span) carries the trace identity, so completed spans
// reassemble into parent-child trees on /tracez. The zero Span is
// inert: its children are zero Spans too, and End measures but records
// nothing — so code that traces only some calls opens a span once and
// calls the same methods either way.
type Span struct {
	r     *Registry
	name  string
	start time.Time

	trace  ID
	id     ID
	parent ID
	attrs  []Label
}

// SpanContext is the portable identity of a live span: enough to
// parent further spans to it from another goroutine or package. The
// zero SpanContext means "no trace".
type SpanContext struct {
	Trace ID `json:"trace_id"`
	Span  ID `json:"span_id"`
}

// Context returns the span's identity for cross-goroutine propagation.
func (s *Span) Context() SpanContext { return SpanContext{Trace: s.trace, Span: s.id} }

// SetAttr attaches (or appends) a key/value attribute to the span; it
// must be called before End.
func (s *Span) SetAttr(key, value string) { s.attrs = append(s.attrs, L(key, value)) }

// StartSpan begins an untraced span on the registry — it records into
// the stage histogram and the span ring but joins no trace tree.
func (r *Registry) StartSpan(name string, attrs ...Label) Span {
	return Span{r: r, name: name, start: time.Now(), attrs: attrs}
}

// StartSpan begins an untraced span on the default registry.
func StartSpan(name string, attrs ...Label) Span { return Default().StartSpan(name, attrs...) }

// StartTrace begins a new trace: the returned span is the trace root,
// and children started from it (directly or via its Context) share its
// TraceID. The trace is finalized for /tracez when the root ends.
func (r *Registry) StartTrace(name string, attrs ...Label) Span {
	return Span{r: r, name: name, start: time.Now(), trace: newID(), id: newID(), attrs: attrs}
}

// StartTrace begins a new trace on the default registry.
func StartTrace(name string, attrs ...Label) Span { return Default().StartTrace(name, attrs...) }

// StartChild begins a span parented to s, in the same trace. Safe to
// call from a different goroutine than the one that started s, as long
// as s has not ended.
func (s *Span) StartChild(name string, attrs ...Label) Span {
	sp := Span{r: s.r, name: name, start: time.Now(), attrs: attrs}
	if s.trace != 0 {
		sp.trace, sp.id, sp.parent = s.trace, newID(), s.id
	}
	return sp
}

// StartSpanIn begins a span under the given parent context: a child of
// that span when the context carries a trace, or a fresh trace root
// when it is the zero SpanContext. This is the cross-package
// propagation entry point (engine → parallel merge legs).
func (r *Registry) StartSpanIn(parent SpanContext, name string, attrs ...Label) Span {
	if parent.Trace == 0 {
		return r.StartTrace(name, attrs...)
	}
	return Span{r: r, name: name, start: time.Now(),
		trace: parent.Trace, id: newID(), parent: parent.Span, attrs: attrs}
}

// StartSpanIn begins a span under parent on the default registry.
func StartSpanIn(parent SpanContext, name string, attrs ...Label) Span {
	return Default().StartSpanIn(parent, name, attrs...)
}

// End finishes the span: the duration is recorded into the per-stage
// histogram, and the
// completed record is appended to the in-memory trace ring, the trace
// store, and the flight recorder when one is armed. It returns the
// measured duration so callers can reuse it for their own accounting.
func (s *Span) End() time.Duration {
	rec := s.endRecord()
	return rec.Duration
}

// EndRecord is End for callers that also need the completed record —
// e.g. a fabric worker that finishes a span locally and then ships the
// record back to the coordinator on the RPC ack path so the
// coordinator can stitch it into its own trace tree.
func (s *Span) EndRecord() SpanRecord { return s.endRecord() }

func (s *Span) endRecord() SpanRecord {
	d := time.Since(s.start)
	rec := SpanRecord{
		Name:     s.name,
		Start:    s.start,
		Duration: d,
		Trace:    s.trace,
		Span:     s.id,
		Parent:   s.parent,
		Attrs:    attrMap(s.attrs),
	}
	if s.r == nil {
		return rec
	}
	s.r.stageHist(s.name).Observe(d.Seconds())
	s.r.ring.add(rec)
	if s.trace != 0 {
		s.r.traces.observe(rec)
	}
	if fr := s.r.flight.Load(); fr != nil {
		fr.addSpan(rec)
	}
	return rec
}

// ObserveRemoteSpan feeds a span record completed in *another process*
// (shipped here over the fabric ack path) into this registry's span
// ring, trace store, and flight recorder, so cross-process traces
// render as one tree on /tracez. The record is NOT billed to the stage
// histograms: the remote process already recorded its own wall
// time, and double-counting it here would corrupt the local stage
// metrics.
func (r *Registry) ObserveRemoteSpan(rec SpanRecord) {
	r.ring.add(rec)
	if rec.Trace != 0 {
		r.traces.observe(rec)
	}
	if fr := r.flight.Load(); fr != nil {
		fr.addSpan(rec)
	}
}

func attrMap(attrs []Label) map[string]string {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]string, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value
	}
	return m
}

// SpanRecord is one completed span held in the trace ring. Trace,
// Span, and Parent are zero for untraced spans.
type SpanRecord struct {
	Name     string            `json:"name"`
	Start    time.Time         `json:"start"`
	Duration time.Duration     `json:"duration"`
	Trace    ID                `json:"trace_id,omitempty"`
	Span     ID                `json:"span_id,omitempty"`
	Parent   ID                `json:"parent_id,omitempty"`
	Attrs    map[string]string `json:"attrs,omitempty"`
}

// Spans returns the most recently completed spans, newest first, up to
// the ring capacity.
func (r *Registry) Spans() []SpanRecord { return r.ring.snapshot() }

// RingLen returns how many completed spans the ring currently holds
// (occupancy, not capacity) — a cheap health signal workers report in
// fabric heartbeats.
func (r *Registry) RingLen() int { return r.ring.len() }

// spanRing is a fixed-capacity ring of completed spans.
type spanRing struct {
	mu   sync.Mutex
	buf  []SpanRecord
	next int
	n    int
}

func newSpanRing(capacity int) spanRing {
	if capacity < 1 {
		capacity = DefaultRingCap
	}
	return spanRing{buf: make([]SpanRecord, capacity)}
}

func (sr *spanRing) add(rec SpanRecord) {
	sr.mu.Lock()
	sr.buf[sr.next] = rec
	sr.next = (sr.next + 1) % len(sr.buf)
	if sr.n < len(sr.buf) {
		sr.n++
	}
	sr.mu.Unlock()
}

func (sr *spanRing) snapshot() []SpanRecord {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	out := make([]SpanRecord, 0, sr.n)
	for i := 0; i < sr.n; i++ {
		idx := (sr.next - 1 - i + len(sr.buf)) % len(sr.buf)
		out = append(out, sr.buf[idx])
	}
	return out
}

func (sr *spanRing) setCap(capacity int) {
	if capacity < 1 {
		capacity = DefaultRingCap
	}
	sr.mu.Lock()
	sr.buf = make([]SpanRecord, capacity)
	sr.next, sr.n = 0, 0
	sr.mu.Unlock()
}

func (sr *spanRing) len() int {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	return sr.n
}

func (sr *spanRing) capacity() int {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	return len(sr.buf)
}

func (sr *spanRing) reset() {
	sr.mu.Lock()
	sr.next, sr.n = 0, 0
	sr.mu.Unlock()
}
