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
	if got := len(r.Spans()); got != 1 {
		t.Fatalf("span ring holds %d record(s), want 1", got)
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

func TestRingCapConfigurable(t *testing.T) {
	r := NewRegistry()
	r.SetRingCap(4)
	if r.RingCap() != 4 {
		t.Fatalf("after SetRingCap(4), RingCap() = %d", r.RingCap())
	}
	for i := 0; i < 10; i++ {
		sp := r.StartSpan("s")
		sp.End()
	}
	if got := len(r.Spans()); got != 4 {
		t.Fatalf("ring holds %d spans, want 4", got)
	}
	if NewRegistry().RingCap() != DefaultRingCap {
		t.Fatal("NewRegistry did not select DefaultRingCap")
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
	if got := len(r.Spans()); got != 0 {
		t.Fatalf("Reset left %d ring span(s)", got)
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
		})
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
