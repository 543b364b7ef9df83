package obs

import "time"

// StageHistogramName is the wall-time histogram every span records
// into, with a stage="<span name>" label — so /metrics carries one
// duration histogram per pipeline stage.
const StageHistogramName = "arams_stage_duration_seconds"

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
// the stage histogram (and an armed flight recorder) but joins no
// trace tree.
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
// histogram, and the completed record goes to the trace store when the
// span is traced and to the flight recorder when one is armed. It
// returns the measured duration so callers can reuse it for their own
// accounting.
func (s *Span) End() time.Duration {
	rec := s.endRecord(s.parent == 0)
	return rec.Duration
}

// EndRecord is End for a span whose parent was started in another
// process, returning the completed record: a fabric worker ends its
// request span with it and ships the record back to the coordinator on
// the RPC ack path, where it is stitched into the coordinator's tree.
// The span is this process's root of the trace, so its end also
// finalizes the trace here, with the spans under it.
func (s *Span) EndRecord() SpanRecord { return s.endRecord(true) }

// endRecord ends the span; a root's end finalizes its trace.
func (s *Span) endRecord(root bool) SpanRecord {
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
	if s.trace != 0 {
		s.r.traces.observe(rec, root)
	}
	if fr := s.r.flight.Load(); fr != nil {
		fr.addSpan(rec)
	}
	return rec
}

// ObserveRemoteSpan feeds a span record completed in *another process*
// (shipped here over the fabric ack path) into this registry's trace
// store and flight recorder, so cross-process traces
// render as one tree on /tracez. The record is NOT billed to the stage
// histograms: the remote process already recorded its own wall
// time, and double-counting it here would corrupt the local stage
// metrics.
func (r *Registry) ObserveRemoteSpan(rec SpanRecord) {
	if rec.Trace != 0 {
		r.traces.observe(rec, rec.Parent == 0)
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

// SpanRecord is one completed span, as the trace store and the flight
// recorder hold it. Trace, Span, and Parent are zero for untraced
// spans.
type SpanRecord struct {
	Name     string            `json:"name"`
	Start    time.Time         `json:"start"`
	Duration time.Duration     `json:"duration"`
	Trace    ID                `json:"trace_id,omitempty"`
	Span     ID                `json:"span_id,omitempty"`
	Parent   ID                `json:"parent_id,omitempty"`
	Attrs    map[string]string `json:"attrs,omitempty"`
}
