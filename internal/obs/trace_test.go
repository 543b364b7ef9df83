package obs

import (
	"encoding/json"
	"testing"
	"time"
)

// traceByID returns the retained trace with the given ID, if any.
func traceByID(r *Registry, id ID) (TraceRecord, bool) {
	for _, tr := range r.Traces() {
		if tr.Trace == id {
			return tr, true
		}
	}
	return TraceRecord{}, false
}

func TestTracePropagationParentChain(t *testing.T) {
	r := NewRegistry()
	root := r.StartTrace("root")
	child := root.StartChild("child")
	grand := child.StartChild("grand")
	grand.End()
	child.End()
	root.End()

	tr, ok := traceByID(r, root.Context().Trace)
	if !ok {
		t.Fatal("completed trace not retained")
	}
	if tr.Root != "root" {
		t.Fatalf("root = %q, want root", tr.Root)
	}
	if len(tr.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(tr.Spans))
	}
	byName := map[string]SpanRecord{}
	for _, sp := range tr.Spans {
		if sp.Trace != tr.Trace {
			t.Fatalf("span %s carries trace %s, want %s", sp.Name, sp.Trace, tr.Trace)
		}
		byName[sp.Name] = sp
	}
	if byName["root"].Parent != 0 {
		t.Fatal("root span has a parent")
	}
	if byName["child"].Parent != byName["root"].Span {
		t.Fatal("child does not parent to root")
	}
	if byName["grand"].Parent != byName["child"].Span {
		t.Fatal("grand does not parent to child")
	}
}

func TestStartSpanInPropagatesAcrossContext(t *testing.T) {
	r := NewRegistry()
	root := r.StartTrace("root")
	ctx := root.Context()

	done := make(chan struct{})
	go func() {
		defer close(done)
		leg := r.StartSpanIn(ctx, "leg")
		leg.End()
	}()
	<-done
	root.End()

	tr, ok := traceByID(r, ctx.Trace)
	if !ok {
		t.Fatal("trace not retained")
	}
	var leg *SpanRecord
	for i := range tr.Spans {
		if tr.Spans[i].Name == "leg" {
			leg = &tr.Spans[i]
		}
	}
	if leg == nil {
		t.Fatal("cross-goroutine leg span missing from trace")
	}
	if leg.Parent != ctx.Span {
		t.Fatalf("leg parent = %s, want %s", leg.Parent, ctx.Span)
	}
}

func TestStartSpanInZeroContextStartsFreshTrace(t *testing.T) {
	r := NewRegistry()
	sp := r.StartSpanIn(SpanContext{}, "solo")
	sp.End()
	tr, ok := traceByID(r, sp.Context().Trace)
	if !ok {
		t.Fatal("standalone StartSpanIn did not open a trace")
	}
	if tr.Root != "solo" || len(tr.Spans) != 1 {
		t.Fatalf("got root %q with %d spans, want solo with 1", tr.Root, len(tr.Spans))
	}
}

func TestUntracedSpanJoinsNoTrace(t *testing.T) {
	r := NewRegistry()
	sp := r.StartSpan("plain")
	sp.End()
	if got := len(r.Traces()); got != 0 {
		t.Fatalf("untraced span produced %d trace(s)", got)
	}
	if got := len(jsonSpans(t, r)); got != 0 {
		t.Fatalf("JSON spans list holds %d untraced record(s), want 0", got)
	}
	if got := r.Histogram(StageHistogramName, L("stage", "plain")).Count(); got != 1 {
		t.Fatalf("stage histogram counts %d, want 1", got)
	}
}

func TestIDJSONRoundTrip(t *testing.T) {
	for _, id := range []ID{0, 1, 0xdeadbeef, ID(1) << 63} {
		b, err := json.Marshal(id)
		if err != nil {
			t.Fatal(err)
		}
		if id == 0 && string(b) != `""` {
			t.Fatalf("zero ID marshals %s, want \"\"", b)
		}
		var back ID
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back != id {
			t.Fatalf("round trip %v -> %s -> %v", id, b, back)
		}
	}
	var bad ID
	if err := json.Unmarshal([]byte(`"not hex"`), &bad); err == nil {
		t.Fatal("non-hex ID string unmarshaled without error")
	}
}

func TestResetClearsTraceState(t *testing.T) {
	r := NewRegistry()
	root := r.StartTrace("root")
	child := root.StartChild("child")
	child.End()
	root.End()
	if len(r.Traces()) == 0 {
		t.Fatal("precondition: no trace retained")
	}
	r.Reset()
	if got := len(r.Traces()); got != 0 {
		t.Fatalf("Reset left %d trace(s)", got)
	}
	if got := len(jsonSpans(t, r)); got != 0 {
		t.Fatalf("Reset left %d span(s) in the JSON spans list", got)
	}
	// The stage-handle cache must be invalidated too: a span ended after
	// Reset re-registers its histogram instead of observing into a
	// handle the Reset discarded.
	sp := r.StartSpan("root")
	sp.End()
	if n := r.Histogram(StageHistogramName, L("stage", "root")).Count(); n != 1 {
		t.Fatalf("post-Reset span recorded %d observations, want 1", n)
	}
}

func TestTraceRetentionKeepsSlowAndRecent(t *testing.T) {
	var ts traceStore
	base := time.Now()
	const total = 200
	slowIdx := 57
	for i := 0; i < total; i++ {
		dur := time.Millisecond
		if i == slowIdx {
			dur = 10 * time.Second
		}
		ts.observe(SpanRecord{
			Name:     "root",
			Start:    base.Add(time.Duration(i) * time.Millisecond),
			Duration: dur,
			Trace:    ID(i + 1),
			Span:     ID(1000 + i),
		}, true)
	}
	snap := ts.snapshot()
	if len(snap) > traceSlowKeep+traceSampleKeep+traceRecentKeep {
		t.Fatalf("snapshot holds %d traces, want <= %d",
			len(snap), traceSlowKeep+traceSampleKeep+traceRecentKeep)
	}
	var slow, newest *TraceRecord
	for i := range snap {
		if snap[i].Trace == ID(slowIdx+1) {
			slow = &snap[i]
		}
		if snap[i].Trace == ID(total) {
			newest = &snap[i]
		}
	}
	if slow == nil {
		t.Fatal("the 10s outlier trace was evicted — newest-first-only retention")
	}
	if slow.Retained != "slow" {
		t.Fatalf("outlier retained as %q, want slow", slow.Retained)
	}
	if newest == nil {
		t.Fatal("the newest trace was evicted")
	}
}

// TestEndRecordClosesItsSubtree: a span started under another process's
// span and ended with EndRecord (a fabric worker's request span) is this
// process's root of the trace: its end retains a record of the spans
// under it alone. Whatever else of the trace the registry holds — here
// the other process's own spans, as when a worker reports to the
// coordinator's registry — stays open until its own root ends.
func TestEndRecordClosesItsSubtree(t *testing.T) {
	r := NewRegistry()
	root := r.StartTrace("ingest_batch")
	enc := root.StartChild("wire_encode")
	enc.End()
	remote := SpanContext{Trace: root.Context().Trace, Span: ID(12345)} // a span of another process
	w := r.StartSpanIn(remote, "worker_absorb")
	inner := w.StartChild("absorb_rows")
	inner.End()
	w.EndRecord()

	names := func(tr TraceRecord) []string {
		var out []string
		for _, sp := range tr.Spans {
			out = append(out, sp.Name)
		}
		return out
	}
	traces := r.Traces()
	if len(traces) != 1 || traces[0].Root != "worker_absorb" || len(traces[0].Spans) != 2 {
		t.Fatalf("after the worker span: %d record(s), want one rooted at worker_absorb with its 2 spans: %+v", len(traces), traces)
	}
	if got := names(traces[0]); got[0] != "absorb_rows" || got[1] != "worker_absorb" {
		t.Fatalf("worker record holds %v", got)
	}
	root.End()
	for _, tr := range r.Traces() {
		if tr.Root != "ingest_batch" {
			continue
		}
		if got := names(tr); len(got) != 2 || got[0] != "wire_encode" || got[1] != "ingest_batch" {
			t.Fatalf("root record holds %v, want [wire_encode ingest_batch]", got)
		}
		return
	}
	t.Fatal("the root's end retained no record")
}
