package audit_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"arams/internal/audit"
)

// TestJournalRingEviction: the ring keeps only the newest `cap` events,
// oldest-first, while Seq keeps counting across evictions.
func TestJournalRingEviction(t *testing.T) {
	j := audit.NewJournal(4)
	for i := 0; i < 10; i++ {
		j.Record(audit.KindCertificate, "c", audit.A("i", float64(i)))
	}
	if j.Len() != 4 {
		t.Fatalf("Len = %d, want 4", j.Len())
	}
	if j.Seq() != 10 {
		t.Fatalf("Seq = %d, want 10", j.Seq())
	}
	evs := j.Events()
	if len(evs) != 4 {
		t.Fatalf("Events returned %d, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := int64(7 + i); ev.Seq != want {
			t.Fatalf("event %d has Seq %d, want %d (oldest-first)", i, ev.Seq, want)
		}
	}
}

// TestJournalQuery covers the three filters and their combination.
func TestJournalQuery(t *testing.T) {
	j := audit.NewJournal(32)
	for i := 0; i < 6; i++ {
		j.Record(audit.KindCertificate, "cert")
		j.Record(audit.KindAlarm, "alarm")
	}
	if got := j.Query(audit.Query{Kind: audit.KindAlarm}); len(got) != 6 {
		t.Fatalf("kind filter returned %d, want 6", len(got))
	}
	if got := j.Query(audit.Query{SinceSeq: 10}); len(got) != 2 {
		t.Fatalf("since filter returned %d, want 2", len(got))
	}
	if got := j.Query(audit.Query{Last: 3}); len(got) != 3 || got[2].Seq != 12 {
		t.Fatalf("last filter returned %d ending at seq %d, want 3 ending at 12", len(got), got[len(got)-1].Seq)
	}
	got := j.Query(audit.Query{Kind: audit.KindAlarm, SinceSeq: 4, Last: 2})
	if len(got) != 2 || got[0].Seq != 10 || got[1].Seq != 12 {
		t.Fatalf("combined filter = %+v, want seqs [10 12]", got)
	}
}

// TestJournalSinkJSONL: every recorded event is mirrored to the sink
// as one valid JSON object per line, attributes included.
func TestJournalSinkJSONL(t *testing.T) {
	j := audit.NewJournal(8)
	var buf bytes.Buffer
	j.SetSink(&buf)
	j.Record(audit.KindAlarm, "drift alarm: residual", audit.A("value", 0.25))
	j.Record(audit.KindCertificate, "cert")
	j.SetSink(nil)
	j.Record(audit.KindCertificate, "not sunk")

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("sink holds %d lines, want 2:\n%s", len(lines), buf.String())
	}
	var ev audit.Event
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("sink line is not JSON: %v\n%s", err, lines[0])
	}
	if ev.Seq != 1 || ev.Kind != audit.KindAlarm || ev.Get("value", -1) != 0.25 {
		t.Fatalf("sink event round-tripped to %+v", ev)
	}
}

// TestJournalStateRestore: restoring into a smaller ring truncates
// oldest-first, the sequence counter carries over, and recording after
// restore continues numbering without reuse.
func TestJournalStateRestore(t *testing.T) {
	j := audit.NewJournal(8)
	for i := 0; i < 5; i++ {
		j.Record(audit.KindCertificate, "c")
	}
	st := j.State()

	small := audit.NewJournal(3)
	small.Restore(st)
	if small.Len() != 3 || small.Seq() != 5 {
		t.Fatalf("small restore: len=%d seq=%d, want 3/5", small.Len(), small.Seq())
	}
	if evs := small.Events(); evs[0].Seq != 3 || evs[2].Seq != 5 {
		t.Fatalf("small restore kept seqs %d..%d, want 3..5", evs[0].Seq, evs[2].Seq)
	}
	if ev := small.Record(audit.KindAlarm, "a"); ev.Seq != 6 {
		t.Fatalf("post-restore record got Seq %d, want 6", ev.Seq)
	}

	big := audit.NewJournal(16)
	big.Restore(st)
	if big.Len() != 5 || big.Seq() != 5 {
		t.Fatalf("big restore: len=%d seq=%d, want 5/5", big.Len(), big.Seq())
	}
	// A state whose Seq lags its events (corrupt or hand-built) must
	// still produce monotone numbering.
	lag := audit.NewJournal(4)
	lag.Restore(audit.JournalState{Seq: 1, Events: st.Events})
	if lag.Seq() != 5 {
		t.Fatalf("lagging-seq restore: Seq = %d, want 5 (max event seq)", lag.Seq())
	}
}

// TestEventGet: present and absent attribute lookups.
func TestEventGet(t *testing.T) {
	ev := audit.Event{Attrs: []audit.Attr{audit.A("x", 2), audit.A("y", 3)}}
	if ev.Get("y", -1) != 3 {
		t.Fatal("Get(y) != 3")
	}
	if ev.Get("missing", -1) != -1 {
		t.Fatal("Get(missing) did not return default")
	}
}

// TestJournalGrowsOnDemand: a journal allocates its ring as events
// arrive, so a fresh one costs its header and nothing of its capacity
// (a tenant's auditor is built on every restore, and most record a
// handful of events before they hibernate). Order is oldest-first while
// the ring grows, and stays so once it is full and wraps; a Restore
// reuses the storage the ring has grown.
func TestJournalGrowsOnDemand(t *testing.T) {
	if allocs := testing.AllocsPerRun(20, func() { audit.NewJournal(audit.DefaultJournalCap) }); allocs > 1 {
		t.Errorf("NewJournal makes %.0f allocations; want its header alone", allocs)
	}
	const capacity = 5
	j := audit.NewJournal(capacity)
	if evs := j.Events(); len(evs) != 0 {
		t.Fatalf("fresh journal holds %d events", len(evs))
	}
	seqs := func() []int64 {
		var out []int64
		for _, ev := range j.Events() {
			out = append(out, ev.Seq)
		}
		return out
	}
	for i := 1; i <= 13; i++ {
		j.Record(audit.KindCertificate, "c")
		lo := max(1, i-capacity+1)
		got := seqs()
		if len(got) != i-lo+1 {
			t.Fatalf("after %d records: %d events, want %d", i, len(got), i-lo+1)
		}
		for k, s := range got {
			if s != int64(lo+k) {
				t.Fatalf("after %d records: seqs %v, want %d..%d oldest-first", i, got, lo, i)
			}
		}
	}
	st := j.State()
	if allocs := testing.AllocsPerRun(20, func() { j.Restore(st) }); allocs != 0 {
		t.Errorf("Restore into a grown ring makes %.0f allocations; want none", allocs)
	}
	if got := seqs(); len(got) != capacity || got[0] != 9 || got[capacity-1] != 13 {
		t.Fatalf("restored seqs %v, want 9..13", got)
	}
	if ev := j.Record(audit.KindAlarm, "a"); ev.Seq != 14 {
		t.Fatalf("record after restore got Seq %d, want 14", ev.Seq)
	}
	if got := seqs(); got[0] != 10 || got[capacity-1] != 14 {
		t.Fatalf("seqs after restore and one record %v, want 10..14", got)
	}
}
