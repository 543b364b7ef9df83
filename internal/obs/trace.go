package obs

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"arams/internal/rng"
)

// ID is a trace or span identifier. IDs render as 16-digit hex in JSON
// so they survive JavaScript consumers (a raw uint64 loses precision
// past 2⁵³ in every browser).
type ID uint64

// String renders the ID as zero-padded hex ("0" stays "0" → rendered
// as all zeros only for the zero ID, which marshals as "").
func (id ID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// MarshalJSON renders the ID as a hex string ("" for the zero ID).
func (id ID) MarshalJSON() ([]byte, error) {
	if id == 0 {
		return []byte(`""`), nil
	}
	return json.Marshal(id.String())
}

// UnmarshalJSON parses the hex-string form.
func (id *ID) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	if s == "" {
		*id = 0
		return nil
	}
	var v uint64
	if _, err := fmt.Sscanf(s, "%x", &v); err != nil {
		return err
	}
	*id = ID(v)
	return nil
}

// idCounter seeds from the process start time so IDs differ across
// restarts; SplitMix64 whitening keeps consecutive IDs uncorrelated.
var idCounter atomic.Uint64

func init() { idCounter.Store(uint64(time.Now().UnixNano())) }

func newID() ID {
	for {
		if id := ID(rng.SplitMix64(idCounter.Add(1))); id != 0 {
			return id
		}
	}
}

// TraceRecord is one completed trace: the root span's identity plus
// every span that ended under it before the root did.
type TraceRecord struct {
	Trace    ID            `json:"trace_id"`
	Root     string        `json:"root"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration"`
	// Retained says why the store kept this trace: "slow", "sample",
	// or "recent" (the strongest reason wins when several apply).
	Retained string       `json:"retained,omitempty"`
	Spans    []SpanRecord `json:"spans"`
}

// Trace-store retention. Newest-first alone would lose exactly the
// traces worth keeping (the slow outliers that fired an alarm minutes
// ago), so completed traces are retained three ways: the K slowest
// ever seen, a uniform reservoir sample over the whole history, and a
// short newest-first ring.
const (
	traceSlowKeep   = 16
	traceSampleKeep = 32
	traceRecentKeep = 32
	traceActiveMax  = 512 // open traces tracked before stale eviction
	traceSpansMax   = 512 // spans retained per trace
	traceStaleAfter = time.Minute
)

type activeTrace struct {
	spans   []SpanRecord
	touched time.Time
	dropped int
}

// traceStore assembles completed spans into traces and retains a
// bounded, usefully-biased subset of them for /tracez.
type traceStore struct {
	mu     sync.Mutex
	active map[ID]*activeTrace
	recent []TraceRecord
	slow   []TraceRecord
	sample []TraceRecord
	seen   uint64 // completed traces, for reservoir sampling
	rng    uint64
}

// observe folds one completed traced span in. A root — this process's
// root of the trace: a span with no parent, or one whose parent was
// started in another process, as a fabric worker's request spans are —
// finalizes the trace with what ended under it. Spans that end after
// their root (detached stragglers) open a new active entry that stale
// eviction eventually collects.
func (ts *traceStore) observe(rec SpanRecord, root bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.active == nil {
		ts.active = make(map[ID]*activeTrace)
	}
	at := ts.active[rec.Trace]
	if at == nil {
		if len(ts.active) >= traceActiveMax {
			ts.evictStaleLocked()
			if len(ts.active) >= traceActiveMax {
				return
			}
		}
		at = &activeTrace{}
		ts.active[rec.Trace] = at
	}
	at.touched = time.Now()
	if len(at.spans) < traceSpansMax {
		at.spans = append(at.spans, rec)
	} else {
		at.dropped++
	}
	if !root {
		return
	}
	spans := at.spans
	if rec.Parent != 0 {
		// A root under another process's span takes the spans under it;
		// the rest of the trace stays open (a coordinator's own spans,
		// when a worker in its process reports to the same registry).
		spans, at.spans = splitSubtree(at.spans, rec.Span)
	}
	if rec.Parent == 0 || len(at.spans) == 0 {
		delete(ts.active, rec.Trace)
	}
	ts.retainLocked(TraceRecord{
		Trace:    rec.Trace,
		Root:     rec.Name,
		Start:    rec.Start,
		Duration: rec.Duration,
		Spans:    spans,
	})
}

// splitSubtree parts spans into those whose parent chain reaches root
// (root's own included) and the rest, each in end order. A span ends
// before its parent, so one pass from the newest span finds every
// descendant after its parent.
func splitSubtree(spans []SpanRecord, root ID) (under, rest []SpanRecord) {
	ids := []ID{root}
	for i := len(spans) - 1; i >= 0; i-- {
		if sp := spans[i]; sp.Span == root || slices.Contains(ids, sp.Parent) {
			ids = append(ids, sp.Span)
			under = append(under, sp)
		} else {
			rest = append(rest, sp)
		}
	}
	slices.Reverse(under)
	slices.Reverse(rest)
	return under, rest
}

func (ts *traceStore) evictStaleLocked() {
	cutoff := time.Now().Add(-traceStaleAfter)
	for id, at := range ts.active {
		if at.touched.Before(cutoff) {
			delete(ts.active, id)
		}
	}
}

func (ts *traceStore) retainLocked(tr TraceRecord) {
	ts.seen++

	// Newest-first ring.
	ts.recent = append(ts.recent, tr)
	if len(ts.recent) > traceRecentKeep {
		copy(ts.recent, ts.recent[len(ts.recent)-traceRecentKeep:])
		ts.recent = ts.recent[:traceRecentKeep]
	}

	// K slowest: replace the current minimum when the newcomer beats it.
	if len(ts.slow) < traceSlowKeep {
		ts.slow = append(ts.slow, tr)
	} else {
		minIdx := 0
		for i := 1; i < len(ts.slow); i++ {
			if ts.slow[i].Duration < ts.slow[minIdx].Duration {
				minIdx = i
			}
		}
		if tr.Duration > ts.slow[minIdx].Duration {
			ts.slow[minIdx] = tr
		}
	}

	// Uniform reservoir over every completed trace.
	if len(ts.sample) < traceSampleKeep {
		ts.sample = append(ts.sample, tr)
	} else {
		ts.rng = rng.SplitMix64(ts.rng + ts.seen)
		if j := ts.rng % ts.seen; j < traceSampleKeep {
			ts.sample[j] = tr
		}
	}
}

// snapshot returns the retained traces, newest first, deduplicated
// across the three retention sets (the strongest reason — slow >
// sample > recent — labels each trace). A fabric worker finalizes one
// record per request of a coordinator's trace, all with its ID, so a
// record is told apart by its start too.
func (ts *traceStore) snapshot() []TraceRecord {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]TraceRecord, 0, len(ts.slow)+len(ts.sample)+len(ts.recent))
	type key struct {
		trace ID
		start int64
	}
	seen := make(map[key]bool)
	add := func(trs []TraceRecord, why string) {
		for _, tr := range trs {
			k := key{tr.Trace, tr.Start.UnixNano()}
			if seen[k] {
				continue
			}
			seen[k] = true
			tr.Retained = why
			out = append(out, tr)
		}
	}
	add(ts.slow, "slow")
	add(ts.sample, "sample")
	add(ts.recent, "recent")
	sort.Slice(out, func(a, b int) bool { return out[a].Start.After(out[b].Start) })
	return out
}

func (ts *traceStore) reset() {
	ts.mu.Lock()
	ts.active = nil
	ts.recent, ts.slow, ts.sample = nil, nil, nil
	ts.seen, ts.rng = 0, 0
	ts.mu.Unlock()
}

// Traces returns the retained completed traces, newest first: the K
// slowest, a uniform sample, and the most recent, deduplicated.
func (r *Registry) Traces() []TraceRecord { return r.traces.snapshot() }
