package obs

import (
	"testing"
	"time"
)

// The span hot path: Span.End resolves its stage histogram through
// the registry's stageHists cache (one lock-free sync.Map hit after
// the first End per stage name) instead of re-walking the global
// metric map with a freshly formatted name+label key on every call.
// BenchmarkSpanEndRegistryLookup reproduces that replaced path so the
// two numbers stay comparable in one `go test -bench SpanEnd` run.

func BenchmarkSpanEndCachedHandles(b *testing.B) {
	r := NewRegistry()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := r.StartSpan("bench_stage")
		sp.End()
	}
}

func BenchmarkSpanEndRegistryLookup(b *testing.B) {
	r := NewRegistry()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := r.StartSpan("bench_stage")
		d := time.Since(sp.start)
		r.Histogram(StageHistogramName, L("stage", sp.name)).Observe(d.Seconds())
		r.ring.add(SpanRecord{Name: sp.name, Start: sp.start, Duration: d})
	}
}

func BenchmarkSpanEndTraced(b *testing.B) {
	r := NewRegistry()
	root := r.StartTrace("bench_root")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := root.StartChild("bench_stage")
		sp.End()
	}
}
